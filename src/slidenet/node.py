"""Node state for the Slide routing core: buffer sets, the re-shuffle
procedure, and the sender/receiver specializations."""

from __future__ import annotations

from . import codec
from .buffers import IncomingBuffer, OutgoingBuffer, Stored
from .util import InvariantError

SENDER = "sender"
INTERNAL = "internal"
RECEIVER = "receiver"


def _first(heights, h, lo, hi, cursor):
    """The first index in [lo, hi) whose height is h, scanning round-robin
    from `cursor`; None if there is none."""
    if lo < cursor < hi:
        tail = heights[cursor:hi]
        if h in tail:
            return cursor + tail.index(h)
    head = heights[lo:hi]
    if h in head:
        return lo + head.index(h)
    return None


class NodeState:
    """One node's routing state.

    Internal nodes keep an incoming buffer from every node except
    themselves and the receiver, and an outgoing buffer to every node
    except themselves and the sender.  The sender keeps only outgoing
    buffers plus the reservoir of undistributed codeword packets; the
    receiver keeps only incoming buffers plus the codeword storage I_R.
    """

    def __init__(self, node_id, role, all_ids, sender_id, receiver_id):
        self.node_id = node_id
        self.role = role
        n = len(all_ids)
        cap = 2 * n
        self.in_buffers = {}
        self.out_buffers = {}
        if role != SENDER:
            for peer in sorted(all_ids):
                if peer != node_id and peer != receiver_id:
                    self.in_buffers[peer] = IncomingBuffer(node_id, peer, cap)
        if role != RECEIVER:
            for peer in sorted(all_ids):
                if peer != node_id and peer != sender_id:
                    self.out_buffers[peer] = OutgoingBuffer(node_id, peer, cap)
        # re-shuffle scans the buffers in this fixed order, with
        # round-robin cursors into it for tie-breaking
        self._buffers = (list(self.in_buffers.values())
                         + list(self.out_buffers.values()))
        self._rr_donor = 0
        self._rr_recipient = 0

        # sender extras
        self.reservoir = []          # undistributed Stored packets
        self.kappa = 0               # packets knowingly inserted
        # receiver extras
        self.storage = {}            # fragment_index -> Stored
        self.current_codeword = 1
        self.duplicate_label = None
        self.decoded = False

    # -- generic helpers -------------------------------------------------

    def all_buffers(self):
        return self._buffers

    def round_state(self):
        """The fields the next round reads: every buffer's, the re-shuffle
        cursors, the reservoir and the receiver's storage."""
        return (tuple(b.round_state() for b in self._buffers),
                self._rr_donor, self._rr_recipient, len(self.reservoir),
                len(self.storage), self.kappa, self.decoded,
                self.duplicate_label)

    def check_invariants(self, heights) -> None:
        """Check every buffer, then an internal node's height balance.
        `heights` are the buffers' heights in `all_buffers()` order, as the
        caller has just read them."""
        for b in self._buffers:
            b.check()
        if self.role != INTERNAL:
            return
        # _buffers is the incoming buffers, then the outgoing ones
        n_in = len(self.in_buffers)
        if max(heights) - min(heights) > 1 \
                or max(heights[:n_in]) > min(heights[n_in:]):
            raise InvariantError(
                f"node {self.node_id}: heights differ by more than one, or "
                f"an incoming buffer tops an outgoing one: " + ", ".join(
                    f"{b.kind} {b.peer}={b.H}" for b in self._buffers))

    # -- re-shuffle -------------------------------------------------------

    def reshuffle(self):
        """Balance buffer heights: repeatedly move the top packet of the
        fullest buffer to the emptiest, while the gap is at least two, or
        exactly one for an incoming-to-outgoing move.  Flagged packets
        never move; ghost slots are never filled.  Returns the total
        potential drop from all moves (recorded into the re-shuffle
        ledger by the authenticated protocol).

        The donor is a fullest buffer, incoming if one is; the recipient
        an emptiest, outgoing if one is, and only outgoing when the donor
        is.  Each is the first such from its round-robin cursor over the
        fixed buffer order, in which `heights` lists every buffer and
        index < n_in marks the incoming ones."""
        bufs = self._buffers
        heights = [b.H for b in bufs]
        if max(heights) == min(heights):
            # balanced: the loop below would stop before its first move,
            # leaving the cursors as they are
            return 0
        n, n_in = len(bufs), len(self.in_buffers)
        total_drop = 0
        while True:
            max_h = max(heights)
            d = _first(heights, max_h, 0, n_in, self._rr_donor)
            if d is None:
                d = _first(heights, max_h, n_in, n, self._rr_donor)
            # packets never re-shuffle from an outgoing buffer into an
            # incoming one.  The donor stays in the pool: at the maximum,
            # it is picked only when the gap is 0, which stops the loop.
            min_h = min(heights) if d < n_in else min(heights[n_in:])
            gap = max_h - min_h
            if gap < 1:
                break
            r = _first(heights, min_h, n_in, n, self._rr_recipient)
            if r is None:
                r = _first(heights, min_h, 0, n_in, self._rr_recipient)
            # at a gap of one, only an incoming-to-outgoing move
            if gap == 1 and (d >= n_in or r < n_in):
                break
            self._rr_donor, self._rr_recipient = (d + 1) % n, (r + 1) % n
            donor = bufs[d]
            item, src = donor.take_top()
            if item is None:
                raise InvariantError(
                    f"node {self.node_id}: re-shuffle picked the empty "
                    f"{donor.kind} buffer of peer {donor.peer}")
            total_drop += src - bufs[r].put_top(item)
            heights[d] -= 1
            heights[r] += 1
        return total_drop

    # -- sender -----------------------------------------------------------

    def load_reservoir(self, stored_packets) -> None:
        self.reservoir = list(stored_packets)
        self.kappa = 0

    def note_confirmed(self) -> None:
        """The sender counts a packet whose receipt a peer confirmed."""
        self.kappa += 1

    def sender_refill(self) -> None:
        """Top up every outgoing buffer with undistributed codeword
        packets, filling free slots bottom-up."""
        for buf in self.out_buffers.values():
            buf.refill(self.reservoir)

    def sender_redistribute(self) -> None:
        """Move unflagged packets off outgoing buffers whose edge gave no
        stage-1 reply this round onto responsive edges with free slots, so
        the remaining supply is never stranded behind a dead edge."""
        for dead in self.out_buffers.values():
            if dead.H_IN is not None:
                continue
            while True:
                live = [b for b in self.out_buffers.values()
                        if b.H_IN is not None and b.H < b.capacity]
                if not live:
                    return
                item, _ = dead.take_top()
                if item is None:
                    break
                min(live, key=lambda b: (b.H, b.peer)).put_top(item)

    # -- receiver ---------------------------------------------------------

    def receiver_drain(self, params, on_message) -> None:
        """Move each incoming slot-1 packet of the current codeword into
        storage, reset the incoming buffers, and decode once enough
        distinct fragments have arrived.  The codeword advances at the
        transmission's end."""
        for buf in self.in_buffers.values():
            for item in buf.slots:
                if item is not None:
                    self._receiver_take(item)
            buf.reset()
        if not self.decoded and len(self.storage) >= params.decode_threshold:
            frags = [s.packet for s in self.storage.values()]
            msg = codec.decode(frags, params)
            if msg is None:
                raise InvariantError(
                    f"receiver {self.node_id}: decoding failed with "
                    f"{len(frags)} distinct fragments")
            self.decoded = True
            on_message(msg)

    def _receiver_take(self, item: Stored) -> None:
        pkt = item.packet
        if not item.fresh:
            return
        idx = pkt.fragment_index
        # a duplicate, or a replayed packet of another codeword, is dropped;
        # its label is the theta evidence against the node that sent it
        if pkt.codeword_index != self.current_codeword or idx in self.storage:
            if self.duplicate_label is None:
                self.duplicate_label = pkt.label()
            return
        self.storage[idx] = item

    # -- transmission boundary --------------------------------------------

    def end_of_transmission_adjust(self) -> None:
        """Close every buffer's flag or ghost slot and mark its leftover
        packets stale, and empty the receiver's storage: a receiver that
        decoded moves on to the next codeword, and a retry counts only
        the packets it sends itself."""
        for buf in self._buffers:
            buf.eot_adjust()
            buf.mark_stale()
        if self.decoded:
            self.current_codeword += 1
        self.storage = {}
        self.duplicate_label = None
        self.decoded = False
