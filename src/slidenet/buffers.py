"""Per-edge buffer state machines for the Slide routing core.

Each directed edge E(A,B) has an OutgoingBuffer at A and an IncomingBuffer
at B, each holding up to 2n packets in stack slots indexed by height
1..2n.  Flagged packets (sent but unconfirmed copies) live in outgoing
buffers; ghost slots (space reserved for a possibly-lost packet) live in
incoming buffers and do not count toward height.  Only this module
moves packets between slots.
"""

from __future__ import annotations

from typing import NamedTuple

from .util import InvariantError


class Stored(NamedTuple):
    """A packet held in a buffer.  `fresh` marks packets inserted by the
    sender during the current transmission; packets held over from an
    earlier transmission are stale and are excluded from the per-packet
    and net-packet signature counters."""

    packet: object
    fresh: bool = True

    def as_stale(self):
        return Stored(self.packet, False) if self.fresh else self


def stack_potential(kind, h, extra, accepted):
    """(non-duplicated, duplication) potential of one buffer: the sum of
    the heights of its occupied slots, worked out from its height `h` and
    its extra slot -- the flagged packet's height for an "out" buffer, the
    ghost slot's for an "in" buffer.  A flagged copy the peer has accepted
    counts as duplication."""
    if extra is None:
        return h * (h + 1) // 2, 0
    if kind == "in":
        if extra <= h:
            # ghost gap below the top: slots 1..h+1 minus the gap
            return (h + 1) * (h + 2) // 2 - extra, 0
        return h * (h + 1) // 2, 0
    # slots 1..h, or 1..h-1 plus the flagged slot when it sits above
    total = h * (h + 1) // 2 if extra <= h else (h - 1) * h // 2 + extra
    if accepted:
        return total - extra, extra
    return total, 0


def network_potential(rows):
    """(non-duplicated, duplication) potential of the buffers whose
    `row()`s are `rows`: the sums of their `stack_potential`s."""
    phi_nd = phi_dup = 0
    for kind, _, h, extra, accepted in rows:
        nd, dup = stack_potential(kind, h, extra, accepted)
        phi_nd += nd
        phi_dup += dup
    return phi_nd, phi_dup


class Buffer:
    """What both buffer kinds share: the slots, the height, and the moves
    re-shuffling and sender redistribution make between buffers."""

    kind = None

    def __init__(self, owner, peer, capacity: int):
        self.owner = owner
        self.peer = peer
        self.slots = [None] * capacity    # slot h at index h - 1
        self.capacity = capacity
        self.H = 0

    def take_top(self):
        """Remove the packet re-shuffling moves off this buffer.  Returns
        (item, height), with item None when there is no such packet."""
        h = self._take_height()
        item = self.slots[h - 1] if h >= 1 else None
        if item is not None:
            self.slots[h - 1] = None
            self.H -= 1
        return item, h

    def put_top(self, item) -> int:
        """Place a packet moved from another buffer on top of this one;
        returns the height it lands at."""
        h = self._put_height()
        self.slots[h - 1] = item
        self.H += 1
        return h

    def mark_stale(self) -> None:
        self.slots = [None if s is None else s.as_stale() for s in self.slots]

    def _collapse_above(self, h: int) -> int:
        """Empty slot h and slide every slot above it down one, keeping
        their order.  Returns the number of packets moved (each drops in
        height by exactly one)."""
        s = self.slots
        moved = len(s) - h - s[h:].count(None)
        del s[h - 1]
        s.append(None)
        return moved

    def _fail(self, check):
        occ = [h for h, s in enumerate(self.slots, 1) if s is not None]
        kind, peer, h, extra, _ = self.row()
        raise InvariantError(
            f"node {self.owner}, {kind} buffer of peer {peer}: {check} "
            f"(occupied {occ}, H={h}, extra slot={extra})")


class OutgoingBuffer(Buffer):
    kind = "out"

    def __init__(self, owner, peer, capacity: int):
        super().__init__(owner, peer, capacity)
        self.sb = 0                  # problem status: re-send the flag
        self.p_tilde = None          # Stored copy of the packet in flight
        self.d = 0                   # sent a packet last round
        self.FR = None               # round the current packet was flagged
        self.H_FP = None             # height of the flagged packet
        self.RR = None               # peer's last reported round-received
        self.H_IN = None             # peer's last reported height
        self.flag_accepted = False   # peer accepted the in-flight copy

    def row(self):
        """[kind, peer, height, flagged height, flag accepted]: the trace
        summary, and all `stack_potential` needs."""
        return [self.kind, self.peer, self.H, self.H_FP, self.flag_accepted]

    def round_state(self):
        """The fields the next round reads; the slots change only along
        with them."""
        return (self.H, self.H_FP, self.FR, self.RR, self.H_IN, self.sb,
                self.d, self.p_tilde, self.flag_accepted)

    def is_empty(self) -> bool:
        """No packet, no flagged copy, and nothing to re-send or to learn
        about a send."""
        return self.H == 0 and self.H_FP is None and self.sb == 0 \
            and self.d == 0

    def _take_height(self) -> int:
        # the top packet, skipping a flagged one at or above the top
        if self.H_FP is not None and self.H_FP >= self.H:
            return self.H - 1
        return self.H

    def _put_height(self) -> int:
        # just above the top, or into the gap below a flagged packet
        if self.H >= 1 and self.slots[self.H - 1] is None:
            return self.H
        return self.H + 1

    # -- stage 1 --------------------------------------------------------

    def stage1_msg(self):
        """Height advertisement: (H, _, _) normally, (H-1, H_FP, FR) when
        a flagged packet exists (its height is reported separately)."""
        if self.H_FP is None:
            return (self.H, None, None)
        return (self.H - 1, self.H_FP, self.FR)

    def fold_reply(self, reply):
        """Absorb the peer's stage-1 reply (H_IN, RR), or None if the edge
        was down, then reset outgoing variables.  Returns the confirmed
        Stored item if this reply confirmed receipt of the flagged packet,
        along with the number of packets that slid down filling its gap.
        """
        if reply is None:
            self.H_IN, self.RR = None, None
        else:
            self.H_IN, self.RR = reply
        if self.d == 1:
            self.d = 0
            if self.RR is None or (self.FR is not None and self.FR > self.RR):
                self.sb = 1
        if self.RR is not None and self.FR is not None and self.FR <= self.RR:
            confirmed = self.p_tilde
            confirmed_height = self.H_FP
            return confirmed, confirmed_height, self._close_flag()
        if (self.RR is not None and self.FR is not None and self.RR < self.FR
                and self.H_FP is not None and self.H_FP < self.H):
            # peer did not get the copy; re-shuffling may have buried it,
            # so swap it back to the top
            s = self.slots
            s[self.H - 1], s[self.H_FP - 1] = s[self.H_FP - 1], s[self.H - 1]
            self.H_FP = self.H
        return None, None, 0

    # -- stage 2 --------------------------------------------------------

    def create_flag(self, round_index: int) -> bool:
        if self.sb == 0 and self.H_IN is not None and self.H > self.H_IN:
            self.p_tilde = self.slots[self.H - 1]
            self.H_FP = self.H
            self.FR = round_index
            self.flag_accepted = False
            return True
        return False

    def should_send(self) -> bool:
        return self.sb == 1 or (self.sb == 0 and self.H_IN is not None
                                and self.H > self.H_IN)

    def mark_sent(self) -> None:
        self.d = 1

    def note_accepted(self, flagged_round) -> None:
        """The peer accepted the copy flagged in `flagged_round`."""
        if self.FR == flagged_round:
            self.flag_accepted = True

    def refill(self, supply) -> None:
        """Fill free slots bottom-up from the front of the list `supply`,
        consuming it."""
        for i, item in enumerate(self.slots):
            if not supply:
                return
            if item is None:
                self.slots[i] = supply.pop(0)
                self.H += 1

    # -- transmission boundary ------------------------------------------

    def _close_flag(self) -> int:
        """Close the flagged packet's slot, sliding the packets above it
        down, and clear the flag and problem status.  Returns the number
        of packets that slid."""
        slide = 0
        if self.H_FP is not None:
            slide = self._collapse_above(self.H_FP)
            self.H -= 1
        self.sb = 0
        self.FR = None
        self.H_FP = None
        self.p_tilde = None
        self.flag_accepted = False
        return slide

    def reset(self) -> None:
        """Empty the buffer and drop any flagged packet."""
        self._close_flag()
        self.slots = [None] * self.capacity
        self.H = 0
        self.d = 0

    def eot_adjust(self) -> None:
        self._close_flag()
        self.d = 0

    def check(self) -> None:
        """Structural invariants: height matches occupancy; slot layout is
        contiguous except for the single flagged-packet gap; the flagged
        slot lies within capacity and holds a packet.  Each test reads the
        slot list; once the first holds, 0 <= H <= capacity."""
        s = self.slots
        h, fp = self.H, self.H_FP
        if s.count(None) != self.capacity - h:
            self._fail("height differs from occupancy")
        if fp is None or fp <= h:
            if None in s[:h]:
                self._fail("slots not contiguous")
        elif h < 1 or fp > self.capacity or None in s[:h - 1] \
                or s[fp - 1] is None:
            # slots 1..h-1 plus the flagged slot above the top
            self._fail("slots not contiguous below the flagged packet")
        if fp is None:
            if self.sb != 0 or self.FR is not None:
                self._fail("problem status without a flagged packet")
        elif fp < 1:
            self._fail("flagged slot outside capacity")


class IncomingBuffer(Buffer):
    kind = "in"

    def __init__(self, owner, peer, capacity: int):
        super().__init__(owner, peer, capacity)
        self.RR = -1                 # round a packet was last accepted
        self.H_GP = None             # ghost slot height
        self.H_OUT = None            # peer's advertised height
        self.sb_OUT = 0              # peer's status bit (inferred)

    def row(self):
        """[kind, peer, height, ghost height, False]: the trace summary,
        and all `stack_potential` needs."""
        return [self.kind, self.peer, self.H, self.H_GP, False]

    def round_state(self):
        """The fields the next round reads; the slots change only along
        with them."""
        return (self.H, self.H_GP, self.RR, self.H_OUT, self.sb_OUT)

    def is_empty(self) -> bool:
        return self.H == 0

    def _take_height(self) -> int:
        # the top packet, which sits one higher above a ghost gap
        if self.H + 1 <= self.capacity and self.slots[self.H] is not None:
            return self.H + 1
        return self.H

    def _put_height(self) -> int:
        # just above the top, and above a reserved ghost slot
        return self.H + 2 if self.H_GP is not None else self.H + 1

    def take_top(self):
        item, h = super().take_top()
        if item is not None and self.H_GP is not None and self.H_GP > self.H:
            self.H_GP = self.H + 1
        return item, h

    def landing_height(self) -> int:
        """Where the next accepted packet lands: the ghost slot if one is
        reserved, else just above the top."""
        return self.H_GP if self.H_GP is not None else self.H + 1

    # -- stage 1 --------------------------------------------------------

    def fold_stage1(self, msg) -> None:
        """Absorb the peer's height advertisement (h, h_fp, fr), or None
        if the edge was down."""
        if msg is None:
            self.sb_OUT = 1
            self.H_OUT = None
            return
        h, h_fp, fr = msg
        if fr is not None and fr > self.RR:
            self.sb_OUT = 1
            self.H_OUT = h_fp
        else:
            self.sb_OUT = 0
            self.H_OUT = h

    # -- stage 2 --------------------------------------------------------

    def _reserve_ghost(self) -> None:
        if (self.H_GP is not None and self.H_GP > self.H) or \
                (self.H_GP is None and self.H < self.capacity):
            self.H_GP = self.H + 1

    def _clear_ghost_gap(self) -> int:
        gap = self.H_GP
        self.H_GP = None
        if gap is not None and gap <= self.H:
            return self._collapse_above(gap)
        return 0

    def receive(self, msg, round_index: int, blocked: bool = False):
        """Process the stage-2 packet slot for this edge.

        msg is (Stored, flagged_round) if a packet arrived and passed
        whatever validity checks the caller applies, else None.  `blocked`
        marks rounds where broadcast gating forbids packet receipt, which
        behaves exactly like not having heard the peer's stage-1 info.

        Returns one of:
            ("accept", stored, landing_height)
            ("dup", slide_count)
            ("idle", slide_count)
            ("hold",)        -- ghost slot reserved
        """
        if self.H_OUT is None or blocked:
            self._reserve_ghost()
            return ("hold",)
        if self.sb_OUT == 1 or self.H_OUT > self.H:
            # a packet should have arrived
            if msg is None:
                self._reserve_ghost()
                return ("hold",)
            stored, fr = msg
            if self.RR < fr:
                land = self.landing_height()
                self.slots[land - 1] = stored
                self.H += 1
                self.H_GP = None
                self.RR = round_index
                return ("accept", stored, land)
            # the peer re-sent a packet we already stored
            return ("dup", self._clear_ghost_gap())
        # no packet was expected; drop any stale reservation
        return ("idle", self._clear_ghost_gap())

    def discard(self, h: int) -> None:
        """Delete the packet at height h, closing the gap it leaves (a
        corrupt node dropping what it has just accepted)."""
        self._collapse_above(h)
        self.H -= 1

    # -- transmission boundary ------------------------------------------

    def reset(self) -> None:
        """Empty the buffer and drop any ghost slot."""
        self.slots = [None] * self.capacity
        self.H = 0
        self.H_GP = None

    def eot_adjust(self) -> None:
        self._clear_ghost_gap()
        self.RR = -1

    def check(self) -> None:
        """Structural invariants: height matches occupancy; slot layout is
        contiguous except for the ghost gap, which sits just above the top
        or inside the stack.  As for outgoing buffers, each test reads the
        slot list."""
        s = self.slots
        h, gp = self.H, self.H_GP
        if s.count(None) != self.capacity - h:
            self._fail("height differs from occupancy")
        if gp is None or gp > h:
            if None in s[:h]:
                self._fail("slots not contiguous")
            if gp is not None and gp != h + 1:
                self._fail("ghost slot not just above the top")
        elif gp < 1 or s[gp - 1] is not None or None in s[:gp - 1] \
                or None in s[gp:h + 1]:
            # slots 1..h+1 minus the ghost gap
            self._fail("slots not contiguous around the ghost gap")
        if gp is not None and gp > self.capacity:
            self._fail("ghost slot outside capacity")
