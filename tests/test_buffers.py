import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidenet.buffers import IncomingBuffer, OutgoingBuffer, Stored
from slidenet.codec import Packet
from slidenet.node import INTERNAL, SENDER, NodeState
from slidenet.util import InvariantError

CAP = 8  # 2n for n=4


def pkt(i):
    return Stored(Packet(1, i, b"\x00\x00"), True)


def fill(buf, heights):
    for h in heights:
        buf.slots[h - 1] = pkt(h)
    buf.H = len(heights)


def occupied(buf):
    return [h for h, s in enumerate(buf.slots, 1) if s is not None]


class TestCollapseAbove:
    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(1, CAP), max_size=CAP), st.integers(1, CAP))
    def test_collapse_matches_model(self, occ, gap):
        if gap in occ:
            occ = occ - {gap}
        buf = IncomingBuffer(1, 2, CAP)
        for h in occ:
            buf.slots[h - 1] = h
        moved = buf._collapse_above(gap)
        expect = sorted(h if h < gap else h - 1 for h in occ)
        assert len(buf.slots) == CAP
        assert occupied(buf) == expect
        assert moved == sum(1 for h in occ if h > gap)
        # contents preserved in order
        assert [s for s in buf.slots if s is not None] == sorted(occ)


def test_check_raises_under_python_O():
    """Buffer checks raise InvariantError rather than assert, so they
    still run under python -O."""
    code = ("from slidenet import InvariantError\n"
            "from slidenet.buffers import OutgoingBuffer\n"
            "from slidenet.engine import InvariantError as EngineError\n"
            "buf = OutgoingBuffer(1, 2, 8)\n"
            "buf.H = 1\n"
            "try:\n"
            "    buf.check()\n"
            "except EngineError as exc:\n"
            "    print(type(exc) is InvariantError, exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(
        "True node 1, out buffer of peer 2: height differs from occupancy")


@pytest.mark.parametrize("fp", [0, -2])
def test_flagged_height_below_one_raises(fp):
    """A flagged height below 1 indexes the slot list from its top end,
    which a full buffer has occupied."""
    buf = OutgoingBuffer(1, 2, CAP)
    fill(buf, range(1, CAP + 1))
    buf.H_FP, buf.FR = fp, 3
    with pytest.raises(InvariantError, match="flagged slot outside capacity"):
        buf.check()


@pytest.mark.parametrize("fp, occ, check", [
    (2, [1, 3, 4], "slots not contiguous"),
    (5, [1, 2, 3], "slots not contiguous below the flagged packet")])
def test_empty_flagged_slot_breaks_contiguity(fp, occ, check):
    """An empty flagged slot fails a contiguity test, at or below the top
    and above it alike."""
    buf = OutgoingBuffer(1, 2, CAP)
    fill(buf, occ)
    buf.H_FP, buf.FR = fp, 3
    with pytest.raises(InvariantError) as exc:
        buf.check()
    assert f": {check} (occupied {occ}," in str(exc.value)


def _reference_out_check(buf):
    """The set-based OutgoingBuffer.check that the list-based one
    replaced, kept as the reference it must match."""
    occ = set(occupied(buf))
    if len(occ) != buf.H:
        buf._fail("height differs from occupancy")
    if not 0 <= buf.H <= buf.capacity:
        buf._fail("height outside capacity")
    if buf.H_FP is None or buf.H_FP <= buf.H:
        if occ != set(range(1, buf.H + 1)):
            buf._fail("slots not contiguous")
    elif occ != set(range(1, buf.H)) | {buf.H_FP}:
        buf._fail("slots not contiguous below the flagged packet")
    if buf.H_FP is None:
        if buf.sb != 0 or buf.FR is not None:
            buf._fail("problem status without a flagged packet")
    elif buf.H_FP < 1:
        buf._fail("flagged slot outside capacity")
    elif buf.slots[buf.H_FP - 1] is None:
        buf._fail("flagged slot empty")


def _reference_in_check(buf):
    """The set-based IncomingBuffer.check, as above."""
    occ = set(occupied(buf))
    if len(occ) != buf.H:
        buf._fail("height differs from occupancy")
    if not 0 <= buf.H <= buf.capacity:
        buf._fail("height outside capacity")
    if buf.H_GP is None or buf.H_GP > buf.H:
        if occ != set(range(1, buf.H + 1)):
            buf._fail("slots not contiguous")
        if buf.H_GP is not None and buf.H_GP != buf.H + 1:
            buf._fail("ghost slot not just above the top")
    elif occ != set(range(1, buf.H + 2)) - {buf.H_GP}:
        buf._fail("slots not contiguous around the ghost gap")
    if buf.H_GP is not None and not 1 <= buf.H_GP <= buf.capacity:
        buf._fail("ghost slot outside capacity")


def _outcome(check, buf):
    try:
        check(buf)
    except InvariantError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("cap", [6, 8])
@pytest.mark.parametrize("kind", ["out", "in"])
def test_check_matches_set_based_reference(kind, cap):
    """Over every slot occupancy, height and extra slot (and, outgoing,
    every problem-status/flag-round pair), `check` raises exactly when the
    set-based reference does, with the same message."""
    if kind == "out":
        buf, reference = OutgoingBuffer(1, 2, cap), _reference_out_check
        fields = [(sb, fr) for sb in (0, 1) for fr in (None, 3)]
    else:
        buf, reference = IncomingBuffer(1, 2, cap), _reference_in_check
        fields = [(None, None)]
    extras = [None] + list(range(cap + 2))
    passed = failed = 0
    for mask in range(1 << cap):
        buf.slots = [pkt(h + 1) if mask >> h & 1 else None
                     for h in range(cap)]
        for h in range(-1, cap + 2):
            buf.H = h
            for extra in extras:
                for sb, fr in fields:
                    if kind == "out":
                        buf.H_FP, buf.sb, buf.FR = extra, sb, fr
                    else:
                        buf.H_GP = extra
                    want = _outcome(reference, buf)
                    assert _outcome(type(buf).check, buf) == want, \
                        (mask, h, extra, sb, fr)
                    if want is None:
                        passed += 1
                    else:
                        failed += 1
    assert passed and failed


class TestOutgoingStage1:
    def test_fresh_buffer_advertises_zero(self):
        buf = OutgoingBuffer(1, 2, CAP)
        assert buf.stage1_msg() == (0, None, None)

    def test_flagged_buffer_advertises_height_minus_one(self):
        buf = OutgoingBuffer(1, 2, CAP)
        fill(buf, range(1, 6))
        buf.p_tilde = buf.slots[4]
        buf.H_FP = 5
        buf.FR = 12
        assert buf.stage1_msg() == (4, 5, 12)

    def test_missing_reply_sets_problem_status(self):
        buf = OutgoingBuffer(1, 2, CAP)
        fill(buf, range(1, 4))
        buf.create_flag(12)
        buf.H_IN = 0
        buf.mark_sent()
        confirmed, _, _ = buf.fold_reply(None)
        assert confirmed is None
        assert buf.sb == 1 and buf.H_IN is None

    def test_confirmation_deletes_flagged_packet(self):
        buf = OutgoingBuffer(1, 2, CAP)
        fill(buf, range(1, 4))
        buf.H_IN = 0
        buf.create_flag(12)
        buf.mark_sent()
        confirmed, height, slide = buf.fold_reply((0, 12))
        assert confirmed is not None and height == 3 and slide == 0
        assert buf.H == 2 and buf.H_FP is None and buf.sb == 0

    def test_unconfirmed_flag_elevates_to_top(self):
        buf = OutgoingBuffer(1, 2, CAP)
        fill(buf, range(1, 6))
        buf.p_tilde = buf.slots[2]
        buf.H_FP = 3
        buf.FR = 12
        marker = buf.slots[2]
        confirmed, _, _ = buf.fold_reply((1, 9))
        assert confirmed is None
        assert buf.H_FP == 5 and buf.slots[4] is marker


class TestOutgoingStage2:
    def test_flag_created_when_taller(self):
        buf = OutgoingBuffer(1, 2, CAP)
        fill(buf, range(1, 4))
        buf.H_IN = 1
        assert buf.create_flag(7)
        assert buf.H_FP == 3 and buf.FR == 7
        assert buf.should_send()

    def test_no_send_at_equal_height(self):
        buf = OutgoingBuffer(1, 2, CAP)
        fill(buf, range(1, 3))
        buf.H_IN = 2
        assert not buf.create_flag(7)
        assert not buf.should_send()

    def test_problem_status_resends_original_flag(self):
        buf = OutgoingBuffer(1, 2, CAP)
        fill(buf, range(1, 4))
        buf.H_IN = 0
        buf.create_flag(5)
        buf.mark_sent()
        buf.fold_reply(None)          # no confirmation -> problem status
        assert buf.sb == 1
        buf.H_IN = 3                  # even with no height advantage
        assert not buf.create_flag(6)
        assert buf.should_send()
        assert buf.FR == 5            # original flagged round is retried


class TestIncoming:
    def make(self):
        buf = IncomingBuffer(2, 1, CAP)
        fill(buf, range(1, 5))
        return buf

    def test_accept_lands_on_top(self):
        buf = self.make()
        buf.fold_stage1((5, 5, 3))    # flagged packet newer than RR
        assert buf.sb_OUT == 1 and buf.H_OUT == 5
        res = buf.receive((pkt(99), 3), round_index=3)
        assert res[0] == "accept" and res[2] == 5
        assert buf.H == 5 and buf.RR == 3 and buf.H_GP is None

    def test_duplicate_discarded(self):
        buf = self.make()
        buf.RR = 4
        buf.fold_stage1((5, 5, 3))    # FR=3 <= RR=4: already received
        assert buf.sb_OUT == 0 and buf.H_OUT == 5
        res = buf.receive((pkt(99), 3), round_index=9)
        assert res[0] == "dup"
        assert buf.H == 4

    def test_silent_edge_reserves_ghost(self):
        buf = self.make()
        buf.fold_stage1(None)
        assert buf.sb_OUT == 1 and buf.H_OUT is None
        res = buf.receive(None, round_index=3)
        assert res == ("hold",)
        assert buf.H_GP == 5 and buf.H == 4
        # ghost persists across another silent round
        buf.fold_stage1(None)
        buf.receive(None, round_index=4)
        assert buf.H_GP == 5

    def test_expected_but_missing_packet(self):
        buf = self.make()
        buf.fold_stage1((6, None, None))
        assert buf.H_OUT == 6
        res = buf.receive(None, round_index=3)
        assert res == ("hold",) and buf.H_GP == 5

    def test_unexpected_round_clears_ghost(self):
        buf = self.make()
        buf.H_GP = 3
        buf.slots[2] = None
        buf.slots[4] = pkt(5)      # gap at 3, packets up to H+1
        buf.fold_stage1((3, None, None))
        res = buf.receive(None, round_index=3)
        assert res[0] == "idle"
        assert buf.H_GP is None and occupied(buf) == [1, 2, 3, 4]


class TestEndOfTransmission:
    def test_flagged_removed(self):
        buf = OutgoingBuffer(1, 2, CAP)
        fill(buf, range(1, 4))
        buf.H_IN = 0
        buf.create_flag(3)
        buf.eot_adjust()
        assert buf.H == 2 and buf.H_FP is None and buf.sb == 0

    def test_clean_buffer_noop(self):
        buf = OutgoingBuffer(1, 2, CAP)
        fill(buf, range(1, 3))
        buf.eot_adjust()
        assert buf.H == 2

    def test_incoming_reset(self):
        buf = IncomingBuffer(2, 1, CAP)
        fill(buf, [1, 2, 4])
        buf.H_GP = 3
        buf.RR = 77
        buf.eot_adjust()
        assert buf.RR == -1 and buf.H_GP is None
        assert occupied(buf) == [1, 2, 3]


def make_node(in_heights, out_heights):
    ids = [0, 1, 2, 3]
    node = NodeState(1, INTERNAL, ids, 0, 3)
    for (peer, buf), h in zip(sorted(node.in_buffers.items()), in_heights):
        fill(buf, range(1, h + 1))
    for (peer, buf), h in zip(sorted(node.out_buffers.items()), out_heights):
        fill(buf, range(1, h + 1))
    return node


def check_invariants(node):
    node.check_invariants([b.H for b in node.all_buffers()])


def spy_moves(node):
    """Patch the node's buffers to log every take_top and put_top as
    (buffer, item, height), in call order; returns the log."""
    log = []
    for buf in node.all_buffers():
        def take_top(buf=buf, take=buf.take_top):
            item, h = take()
            log.append((buf, item, h))
            return item, h

        def put_top(item, buf=buf, put=buf.put_top):
            h = put(item)
            log.append((buf, item, h))
            return h

        buf.take_top, buf.put_top = take_top, put_top
    return log


class TestReshuffle:
    def test_two_buffers_balance(self):
        node = make_node([5, 3], [4, 4])
        node.reshuffle()
        heights = sorted(b.H for b in node.all_buffers())
        assert heights == [4, 4, 4, 4]

    def test_incoming_to_outgoing_at_gap_one(self):
        node = make_node([4, 3], [3, 3])
        node.reshuffle()
        assert sorted(b.H for b in node.in_buffers.values()) == [3, 3]
        assert sorted(b.H for b in node.out_buffers.values()) == [3, 4]

    def test_equal_heights_no_move(self):
        node = make_node([3, 3], [3, 3])
        node._rr_donor, node._rr_recipient = 2, 3
        log = spy_moves(node)
        assert node.reshuffle() == 0
        assert log == []
        assert (node._rr_donor, node._rr_recipient) == (2, 3)

    def test_balanced_with_flag_and_ghost_unchanged(self):
        node = make_node([3, 3], [3, 3])
        flagged = node.out_buffers[2]
        flagged.p_tilde = flagged.slots[2]
        flagged.H_FP, flagged.FR = 3, 5
        ghosted = node.in_buffers[0]
        ghosted.H_GP = 4
        node._rr_donor, node._rr_recipient = 1, 2
        check_invariants(node)
        before = [(b.slots[:], b.round_state())
                  for b in node.all_buffers()]
        assert node.reshuffle() == 0
        assert [(b.slots[:], b.round_state())
                for b in node.all_buffers()] == before
        assert (node._rr_donor, node._rr_recipient) == (1, 2)

    def test_flagged_packet_never_moves(self):
        node = make_node([5, 5], [1, 5])
        buf = node.out_buffers[2]     # height 1
        donor = node.out_buffers[3]   # height 5, flag its top
        donor.p_tilde = donor.slots[4]
        donor.H_FP = 5
        donor.FR = 1
        marker = donor.slots[4]
        node.reshuffle()
        assert donor.slots[donor.H_FP - 1] is marker
        check_invariants(node)

    def test_ghost_slot_never_filled(self):
        node = make_node([5, 1], [3, 3])
        short = node.in_buffers[2]    # height 1... locate by height
        short = min(node.in_buffers.values(), key=lambda b: b.H)
        short.H_GP = 2
        node.reshuffle()
        assert short.slots[1] is None or short.H_GP != 2
        check_invariants(node)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 7), st.lists(st.integers(0, 1), min_size=4,
                                       max_size=4),
           st.lists(st.integers(0, 1), min_size=4, max_size=4))
    def test_balances_from_round_perturbation(self, base, gains, losses):
        # incoming buffers gain at most one packet per round, outgoing
        # buffers lose at most one: re-shuffling must restore balance
        ins = [min(CAP, base + g) for g in gains[:2]]
        outs = [max(0, base - l) for l in losses[:2]]
        node = make_node(ins, outs)
        log = spy_moves(node)
        node.reshuffle()
        check_invariants(node)
        # each move takes a packet off the donor, then puts it on the
        # recipient
        assert len(log) % 2 == 0
        for (donor, item, src), (recipient, put, dst) in zip(log[::2],
                                                             log[1::2]):
            assert put is item and item is not None
            assert not (donor.kind == "out" and recipient.kind == "in")
            assert dst <= src  # packets never climb during re-shuffle

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_conserves_packets(self, base, data):
        ins = [data.draw(st.integers(max(0, base - 1), min(CAP, base + 1)))
               for _ in range(2)]
        outs = [data.draw(st.integers(max(0, base - 1), min(CAP, base + 1)))
                for _ in range(2)]
        if max(ins + outs) - min(ins + outs) > 2:
            return
        node = make_node(ins, outs)
        before = sum(b.H for b in node.all_buffers())
        node.reshuffle()
        assert sum(b.H for b in node.all_buffers()) == before


# -- re-shuffle against the list-based reference ---------------------------

def _ref_pick(node, candidates, prefer_kind, cursor):
    pool = [b for b in candidates if b.kind == prefer_kind] or candidates
    bufs = node._buffers
    for offset in range(len(bufs)):
        idx = (cursor + offset) % len(bufs)
        if bufs[idx] in pool:
            return bufs[idx], (idx + 1) % len(bufs)


def _ref_reshuffle(node):
    """Re-shuffle as written before heights were tracked by index: every
    pass rebuilds the candidate lists from the buffers' heights."""
    total_drop = 0
    bufs = node._buffers
    if not bufs:
        return 0
    heights = [b.H for b in bufs]
    if max(heights) == min(heights):
        return 0
    while True:
        max_h = max(b.H for b in bufs)
        donor, d_cursor = _ref_pick(node, [b for b in bufs if b.H >= max_h],
                                    "in", node._rr_donor)
        if donor.kind == "out":
            pool = [b for b in node.out_buffers.values() if b is not donor]
        else:
            pool = [b for b in bufs if b is not donor]
        if not pool:
            break
        min_h = min(b.H for b in pool)
        recipient, r_cursor = _ref_pick(
            node, [b for b in pool if b.H <= min_h], "out",
            node._rr_recipient)
        gap = max_h - min_h
        ok = gap > 1 or (gap == 1 and donor.kind == "in"
                         and recipient.kind == "out")
        if not ok:
            break
        node._rr_donor, node._rr_recipient = d_cursor, r_cursor
        item, src = donor.take_top()
        if item is None:
            raise InvariantError(
                f"node {node.node_id}: re-shuffle picked the empty "
                f"{donor.kind} buffer of peer {donor.peer}")
        dst = recipient.put_top(item)
        total_drop += src - dst
    return total_drop


@st.composite
def reshuffle_inputs(draw):
    """A node's role and size, then per buffer a height plus an optional
    flagged packet (outgoing) or ghost slot (incoming), each in a layout
    its `check()` accepts, then both cursors.  One buffer may be hollow:
    its height kept, its packets gone, so re-shuffle can pick an empty
    donor."""
    n = draw(st.integers(3, 6))
    node_id = draw(st.integers(0, n - 2))   # 0 is the sender, n-1 the receiver
    cap = 2 * n
    layouts = []
    for kind in ["in"] * (n - 2 if node_id else 0) + ["out"] * (n - 2):
        h = draw(st.integers(0, cap))
        extra = None
        if kind == "out" and h >= 1 and draw(st.booleans()):
            # a flag above the top leaves a gap at the top
            extra = draw(st.integers(1, cap))
        elif kind == "in" and h < cap and draw(st.booleans()):
            # a ghost slot just above the top or inside the stack
            extra = draw(st.integers(1, h + 1))
        layouts.append((h, extra))
    n_bufs = len(layouts)
    cursors = (draw(st.integers(0, n_bufs - 1)),
               draw(st.integers(0, n_bufs - 1)))
    hollow = draw(st.none() | st.integers(0, n_bufs - 1))
    return n, node_id, layouts, cursors, hollow


def _build_reshuffle_node(n, node_id, layouts, cursors, hollow):
    role = SENDER if node_id == 0 else INTERNAL
    node = NodeState(node_id, role, list(range(n)), 0, n - 1)
    label = iter(range(10**6))
    for i, (buf, (h, extra)) in enumerate(zip(node.all_buffers(), layouts)):
        if buf.kind == "out":
            occupied = list(range(1, h + 1))
            if extra is not None and extra > h:
                occupied = list(range(1, h)) + [extra]
        else:
            occupied = list(range(1, h + 1))
            if extra is not None and extra <= h:
                occupied = [s for s in range(1, h + 2) if s != extra]
            buf.H_GP = extra
        for s in occupied:
            buf.slots[s - 1] = pkt(next(label))
        buf.H = h
        if buf.kind == "out" and extra is not None:
            buf.H_FP, buf.FR = extra, 1
            buf.p_tilde = buf.slots[extra - 1]
        buf.check()
        if i == hollow:
            buf.slots = [None] * buf.capacity
    node._rr_donor, node._rr_recipient = cursors
    return node


def _reshuffle_outcome(node, reshuffle):
    try:
        result = reshuffle()
    except (InvariantError, IndexError) as exc:
        result = (type(exc), str(exc))
    slots = [[None if s is None else s.packet.fragment_index
              for s in b.slots] for b in node.all_buffers()]
    return (result, node._rr_donor, node._rr_recipient, slots,
            [b.round_state()[:2] for b in node.all_buffers()])


@settings(max_examples=400, deadline=None)
@given(reshuffle_inputs())
def test_reshuffle_matches_list_reference(inputs):
    """The index-based re-shuffle moves the same packets between the same
    buffers as the list-based reference, with the same drop, cursors and
    errors, on internal and sender nodes with flags and ghost slots."""
    node = _build_reshuffle_node(*inputs)
    ref = _build_reshuffle_node(*inputs)
    assert _reshuffle_outcome(node, node.reshuffle) == \
        _reshuffle_outcome(ref, lambda: _ref_reshuffle(ref))
