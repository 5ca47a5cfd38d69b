"""Node state for the Slide routing core: buffer sets, the re-shuffle
procedure, and the sender/receiver specializations."""

from __future__ import annotations

from .buffers import IncomingBuffer, OutgoingBuffer, Stored

SENDER = "sender"
INTERNAL = "internal"
RECEIVER = "receiver"


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
        # round-robin cursors for re-shuffle tie-breaking; buffer keys are
        # ("in", peer) / ("out", peer) in a fixed order
        self._buffer_keys = ([("in", p) for p in sorted(self.in_buffers)]
                             + [("out", p) for p in sorted(self.out_buffers)])
        self._rr_donor = 0
        self._rr_recipient = 0

        # sender extras
        self.reservoir = []          # undistributed Stored packets
        self.kappa = 0               # packets knowingly inserted/received
        # receiver extras
        self.storage = {}            # fragment_index -> Stored
        self.current_codeword = 1
        self.duplicate_label = None
        self.decoded = False

    # -- generic helpers -------------------------------------------------

    def buffer(self, key):
        kind, peer = key
        return self.in_buffers[peer] if kind == "in" else self.out_buffers[peer]

    def all_buffers(self):
        return [self.buffer(k) for k in self._buffer_keys]

    def total_packets(self) -> int:
        return sum(b.H for b in self.all_buffers())

    def check_invariants(self) -> None:
        for b in self.all_buffers():
            b.check()
        flags = sum(1 for b in self.out_buffers.values() if b.H_FP is not None)
        assert flags <= len(self.out_buffers)
        if self.role == INTERNAL:
            heights = [b.H for b in self.all_buffers()]
            if heights:
                assert max(heights) - min(heights) <= 1, (self.node_id, heights)
            for ib in self.in_buffers.values():
                for ob in self.out_buffers.values():
                    assert ib.H <= ob.H, (self.node_id, ib.peer, ob.peer,
                                          ib.H, ob.H)

    # -- re-shuffle -------------------------------------------------------

    def _pick(self, candidates, prefer_kind, cursor):
        """Among candidate keys pick by type preference then round-robin
        from the cursor over the fixed buffer-key order."""
        preferred = [k for k in candidates if k[0] == prefer_kind]
        pool = preferred if preferred else candidates
        order = {k: i for i, k in enumerate(self._buffer_keys)}
        pool = sorted(pool, key=lambda k: order[k])
        for offset in range(len(self._buffer_keys)):
            idx = (cursor + offset) % len(self._buffer_keys)
            key = self._buffer_keys[idx]
            if key in pool:
                return key, (idx + 1) % len(self._buffer_keys)
        return pool[0], cursor

    def _adjusted_donor_slot(self, key):
        buf = self.buffer(key)
        m = buf.H
        if key[0] == "out" and buf.H_FP is not None and buf.H_FP >= buf.H:
            m -= 1
        elif key[0] == "in" and buf.H + 1 <= buf.capacity \
                and buf.slots.get(buf.H + 1) is not None:
            m += 1
        return m

    def _adjusted_recipient_floor(self, key):
        buf = self.buffer(key)
        m = buf.H
        if key[0] == "out" and m >= 1 and buf.slots.get(m) is None:
            m -= 1
        elif key[0] == "in" and buf.H_GP is not None:
            m += 1
        return m

    def _try_move(self, donor_key, recipient_key):
        donor = self.buffer(donor_key)
        recipient = self.buffer(recipient_key)
        take = self._adjusted_donor_slot(donor_key)
        floor = self._adjusted_recipient_floor(recipient_key)
        assert take >= 1, "re-shuffle selected an empty donor"
        item = donor.slots.get(take)
        donor.slots.put(take, None)
        recipient.slots.put(floor + 1, item)
        donor.H -= 1
        recipient.H += 1
        if donor_key[0] == "in" and donor.H_GP is not None \
                and donor.H_GP > donor.H:
            donor.H_GP = donor.H + 1
        drop = take - floor - 1
        return item, take, floor + 1, drop

    def reshuffle(self, record_move=None):
        """Balance buffer heights: repeatedly move the top packet of the
        fullest buffer to the emptiest, while the gap is at least two, or
        exactly one for an incoming-to-outgoing move.  Flagged packets
        never move; ghost slots are never filled.  Returns the total
        potential drop from all moves (recorded into the re-shuffle
        ledger by the authenticated protocol)."""
        total_drop = 0
        if not self._buffer_keys:
            return 0
        while True:
            heights = {k: self.buffer(k).H for k in self._buffer_keys}
            max_h = max(heights.values())
            min_h = min(heights.values())
            donors = [k for k, h in heights.items() if h == max_h]
            donor_key, d_cursor = self._pick(donors, "in", self._rr_donor)
            recipients = [k for k, h in heights.items() if h == min_h
                          and k != donor_key]
            if donor_key[0] == "out":
                # packets never re-shuffle from an outgoing buffer into an
                # incoming one; restrict the recipient pool accordingly
                out_pool = [k for k in self._buffer_keys
                            if k[0] == "out" and k != donor_key]
                if not out_pool:
                    break
                floor_h = min(heights[k] for k in out_pool)
                recipients = [k for k in out_pool if heights[k] == floor_h]
                min_h = floor_h
            if not recipients:
                break
            recipient_key, r_cursor = self._pick(recipients, "out",
                                                 self._rr_recipient)
            gap = max_h - min_h
            ok = gap > 1 or (gap == 1 and donor_key[0] == "in"
                             and recipient_key[0] == "out")
            if not ok:
                break
            self._rr_donor, self._rr_recipient = d_cursor, r_cursor
            item, src, dst, drop = self._try_move(donor_key, recipient_key)
            total_drop += drop
            if record_move is not None:
                record_move(donor_key, recipient_key, item, src, dst)
        return total_drop

    # -- sender -----------------------------------------------------------

    def load_reservoir(self, stored_packets) -> None:
        self.reservoir = list(stored_packets)
        self.kappa = 0

    def sender_refill(self) -> int:
        """Top up every outgoing buffer with undistributed codeword
        packets, filling free slots bottom-up.  Returns how many packets
        were placed."""
        placed = 0
        for peer in sorted(self.out_buffers):
            buf = self.out_buffers[peer]
            for h in range(1, buf.capacity + 1):
                if not self.reservoir:
                    return placed
                if buf.slots.get(h) is None:
                    buf.slots.put(h, self.reservoir.pop(0))
                    buf.H += 1
                    placed += 1
        return placed

    def sender_redistribute(self) -> None:
        """Move unflagged packets off outgoing buffers whose edge gave no
        stage-1 reply this round onto responsive edges with free slots, so
        the remaining supply is never stranded behind a dead edge."""
        for peer in sorted(self.out_buffers):
            dead = self.out_buffers[peer]
            if dead.H_IN is not None:
                continue
            while True:
                take = self._adjusted_donor_slot(("out", peer))
                if take < 1 or dead.slots.get(take) is None:
                    break
                live = [(b.H, p) for p, b in sorted(self.out_buffers.items())
                        if b.H_IN is not None and b.H < b.capacity]
                if not live:
                    return
                _, target_peer = min(live)
                target = self.out_buffers[target_peer]
                floor = self._adjusted_recipient_floor(("out", target_peer))
                item = dead.slots.get(take)
                dead.slots.put(take, None)
                dead.H -= 1
                target.slots.put(floor + 1, item)
                target.H += 1

    # -- receiver ---------------------------------------------------------

    def receiver_drain(self, params, on_message, plain_mode: bool,
                       decode_fn) -> None:
        """Move each incoming slot-1 packet of the current codeword into
        storage, reset the incoming buffers, and decode once enough
        distinct fragments have arrived."""
        for peer in sorted(self.in_buffers):
            buf = self.in_buffers[peer]
            if buf.H > 0:
                for h in buf.slots.occupied():
                    item = buf.slots.get(h)
                    self._receiver_take(item, plain_mode)
            buf.reset()
        if not self.decoded and len(self.storage) >= params.decode_threshold:
            frags = [s.packet for s in self.storage.values()]
            msg = decode_fn(frags)
            assert msg is not None, "threshold reached but decode failed"
            self.decoded = True
            on_message(msg)
            if plain_mode:
                self.advance_codeword()

    def _receiver_take(self, item: Stored, plain_mode: bool) -> None:
        pkt = item.packet
        if pkt.codeword_index != self.current_codeword:
            return
        if not plain_mode and not item.fresh:
            return
        idx = pkt.fragment_index
        if idx in self.storage:
            if self.duplicate_label is None:
                self.duplicate_label = pkt.label()
            return
        self.storage[idx] = item
        self.kappa += 1

    def advance_codeword(self) -> None:
        self.current_codeword += 1
        self.reset_codeword_state()

    def reset_codeword_state(self) -> None:
        self.storage = {}
        self.kappa = 0
        self.duplicate_label = None
        self.decoded = False

    # -- transmission boundary --------------------------------------------

    def end_of_transmission_adjust(self) -> None:
        for buf in self.out_buffers.values():
            buf.eot_adjust()
        for buf in self.in_buffers.values():
            buf.eot_adjust()

    def mark_all_stale(self) -> None:
        for buf in self.all_buffers():
            for h in buf.slots.occupied():
                buf.slots.put(h, buf.slots.get(h).as_stale())
