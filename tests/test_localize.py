import random

import pytest

from slidenet.auth import LedgerEntry, Theta, classify_failure
from slidenet.crypto import keygen
from slidenet.localize import (LocalizationError, NodeReport, StatusReportSet,
                               Verdict, audit_consistency, localize_f2,
                               localize_f3, localize_f4, run_localization)

N = 4
T_FAIL = 3
LABEL = (1, 17)


@pytest.fixture(scope="module")
def ring():
    return keygen(list(range(N)), seed=5)


def s1_evidence(ring, signer, sig1, rise, r, sigp=None):
    key = ring.keypair(signer)
    return ring.sign(key, ("s1", T_FAIL, r, 0, 0, sig1, rise, sigp))


def s2_evidence(ring, signer, sig1, drop, r, sigp=None):
    key = ring.keypair(signer)
    return ring.sign(key, ("s2", T_FAIL, r, None, 0, sig1, 0, drop, sigp))


def build_reports(ring, reason, edges, label=LABEL):
    """Construct a mutually-consistent report set.  edges maps directed
    (a, b) to dict(sig1=..., drop=..., rise=..., sigp=..., r=round); both
    endpoints report matching, properly-evidenced values, each `sigp` the
    count of packets labelled `label`."""
    rs = StatusReportSet(
        failed_T=T_FAIL, reason=reason, n=N, sender=0, receiver=N - 1,
        participants=list(range(N)), eliminated=frozenset())
    for node in range(N):
        rep = NodeReport(node)
        if reason[0] == "f2" and node != 0:
            rep.sig_nn = LedgerEntry(0, (T_FAIL, 0), None)
        rs.reports[node] = rep
    for (a, b), spec in sorted(edges.items()):
        sig1 = spec.get("sig1", 0)
        drop = spec.get("drop", 0)
        rise = spec.get("rise", 0)
        sigp = spec.get("sigp")
        r = spec.get("r", 10)
        label_pair = (label, sigp) if sigp is not None else None
        ev1 = s1_evidence(ring, b, sig1, rise, r, label_pair)
        ev2 = s2_evidence(ring, a, sig1, drop, r, label_pair)
        out = rs.reports[a].out_edges.setdefault(b, {})
        out["sig1"] = LedgerEntry(sig1, (T_FAIL, r), ev1)
        out["sig2"] = LedgerEntry(rise, (T_FAIL, r), ev1)
        out["sig3"] = LedgerEntry(drop, (T_FAIL, r), None)
        if sigp is not None:
            out["sigp"] = LedgerEntry(sigp, (T_FAIL, r), ev1)
        inn = rs.reports[b].in_edges.setdefault(a, {})
        inn["sig1"] = LedgerEntry(sig1, (T_FAIL, r), ev2)
        inn["sig2"] = LedgerEntry(drop, (T_FAIL, r), ev2)
        inn["sig3"] = LedgerEntry(rise, (T_FAIL, r), None)
        if sigp is not None:
            inn["sigp"] = LedgerEntry(sigp, (T_FAIL, r), ev2)
    return rs


def honest_chain_edges(count=5, drop=4, rise=3):
    """Packets flowing 0 -> 1 -> 2 -> 3, every node one-in-one-out."""
    return {
        (0, 1): dict(sig1=count, drop=drop * count, rise=rise * count),
        (1, 2): dict(sig1=count, drop=rise * count, rise=2 * count),
        (2, 3): dict(sig1=count, drop=2 * count, rise=count),
    }


class TestClassify:
    def test_success(self):
        assert classify_failure(10, 1024, Theta(True, None, 1)) == ("ok",)

    def test_duplicate_wins(self):
        reason = classify_failure(1024, 1024, Theta(False, LABEL, 1))
        assert reason == ("f4", LABEL)

    def test_underinsertion(self):
        assert classify_failure(1000, 1024, Theta(False, None, 1)) == ("f2",)

    def test_flow_deficit(self):
        assert classify_failure(1024, 1024, Theta(False, None, 1)) == ("f3",)


class TestConsistency:
    def test_honest_reports_pass(self, ring):
        rs = build_reports(ring, ("f3",), honest_chain_edges())
        assert audit_consistency(rs, ring) is None

    def test_negative_reshuffle_ledger(self, ring):
        rs = build_reports(ring, ("f2",), honest_chain_edges())
        rs.reports[2].sig_nn = LedgerEntry(-3, (T_FAIL, 0), None)
        verdict = audit_consistency(rs, ring)
        assert verdict is not None
        assert verdict.node == 2 and verdict.kind == "malformed-report"

    def test_unevidenced_value(self, ring):
        rs = build_reports(ring, ("f3",), honest_chain_edges())
        rs.reports[2].in_edges[1]["sig1"] = LedgerEntry(99, (T_FAIL, 10),
                                                        None)
        verdict = audit_consistency(rs, ring)
        assert verdict is not None and verdict.node == 2

    def test_flow_mismatch_blames_staler_stamp(self, ring):
        edges = honest_chain_edges()
        rs = build_reports(ring, ("f3",), edges)
        # node 2 reports an outdated (genuinely signed) value from round 4
        stale = s2_evidence(ring, 1, 3, 2, 4)
        rs.reports[2].in_edges[1]["sig1"] = LedgerEntry(3, (T_FAIL, 4), stale)
        verdict = audit_consistency(rs, ring)
        assert verdict is not None
        assert verdict.kind == "pairwise-inconsistency"
        assert verdict.node == 2

    def test_overclaimed_potential_blames_signer(self, ring):
        edges = honest_chain_edges()
        # node 1 holds a genuine node-2 statement whose rise exceeds what
        # node 2's own report admits by more than 2n
        edges[(2, 3)] = dict(sig1=5, drop=1, rise=1)
        rs = build_reports(ring, ("f2",), edges)
        big = s2_evidence(ring, 2, 5, 60, 12)
        rs.reports[3].in_edges[2]["sig2"] = LedgerEntry(60, (T_FAIL, 12), big)
        rs.reports[3].in_edges[2]["sig1"] = LedgerEntry(5, (T_FAIL, 12), big)
        verdict = audit_consistency(rs, ring)
        assert verdict is not None and verdict.node == 2


    def test_traffic_with_eliminated_node(self, ring):
        rs = build_reports(ring, ("f3",), honest_chain_edges())
        rs.eliminated = frozenset({2})
        verdict = audit_consistency(rs, ring)
        assert (verdict.node, verdict.kind) == (1, "malformed-report")
        assert "traffic with eliminated node 2" in verdict.inequality

    def test_outgoing_increase_exceeding_own_decrease(self, ring):
        rs = build_reports(ring, ("f3",), honest_chain_edges())
        rs.reports[1].out_edges[2]["sig3"] = LedgerEntry(0, (T_FAIL, 10),
                                                         None)
        verdict = audit_consistency(rs, ring)
        assert (verdict.node, verdict.kind) == (1, "malformed-report")
        assert "outgoing edge to 2 claims increase 10" in verdict.inequality

    def test_incoming_increase_exceeding_signed_decrease(self, ring):
        rs = build_reports(ring, ("f3",), honest_chain_edges())
        rs.reports[2].in_edges[1]["sig3"] = LedgerEntry(99, (T_FAIL, 10),
                                                        None)
        verdict = audit_consistency(rs, ring)
        assert (verdict.node, verdict.kind) == (2, "malformed-report")
        assert "incoming edge from 1 claims increase 99" in verdict.inequality

    def test_gain_from_sender_beyond_its_record(self, ring):
        # the claimed gain 30 stays within the sender-signed drop 40, but
        # exceeds the sender's own record of the rise, 15, by more than 2n
        rs = build_reports(ring, ("f3",), honest_chain_edges(drop=8))
        rs.reports[1].in_edges[0]["sig3"] = LedgerEntry(30, (T_FAIL, 10),
                                                        None)
        verdict = audit_consistency(rs, ring)
        assert (verdict.node, verdict.kind) == (1, "pairwise-inconsistency")
        assert "potential gain 30 from the sender" in verdict.inequality

    def test_evidence_signed_by_another_node(self, ring):
        # node 1's statement, word for word, but signed by node 3
        rs = build_reports(ring, ("f3",), honest_chain_edges())
        forged = s2_evidence(ring, 3, 5, 15, 10)
        rs.reports[2].in_edges[1]["sig1"] = LedgerEntry(5, (T_FAIL, 10),
                                                        forged)
        verdict = audit_consistency(rs, ring)
        assert (verdict.node, verdict.kind) == (2, "malformed-report")
        assert "without a matching signed statement" in verdict.inequality

    def test_evidence_with_another_stamp(self, ring):
        rs = build_reports(ring, ("f3",), honest_chain_edges())
        rv = rs.reports[2].in_edges[1]["sig1"]
        rs.reports[2].in_edges[1]["sig1"] = LedgerEntry(rv.value, (T_FAIL, 11),
                                                        rv.evidence)
        verdict = audit_consistency(rs, ring)
        assert (verdict.node, verdict.kind) == (2, "malformed-report")
        assert "without a matching signed statement" in verdict.inequality


class TestF2:
    def test_honest_ledgers_unsatisfiable(self, ring):
        rs = build_reports(ring, ("f2",), honest_chain_edges())
        assert localize_f2(rs) is None

    def test_overdrawn_potential_found(self, ring):
        # node 2's signed potential drops vastly exceed its starting
        # potential plus everything it admits receiving
        edges = honest_chain_edges()
        edges[(2, 3)] = dict(sig1=300, drop=900, rise=300)
        edges[(2, 1)] = dict(sig1=300, drop=900, rise=300)
        rs = build_reports(ring, ("f2",), edges)
        assert localize_f2(rs) == Verdict(
            2, "F2-potential",
            "4n^3-4n^2 + sum_B SIG^2[3][B->2] < SIG_2,2 + sum_B "
            "SIG^B[2][2->B]: 192 + 10 < 0 + 1800", 1598)

    def test_brute_force_honest_walks_never_flagged(self, ring):
        # independent oracle: simulate random honest packet journeys and
        # accumulate the exact ledger updates; the incrimination
        # inequality must stay unsatisfiable for every node
        rng = random.Random(11)
        for trial in range(25):
            edges = {}

            def bump(a, b, h_out, h_in):
                spec = edges.setdefault((a, b),
                                        dict(sig1=0, drop=0, rise=0))
                spec["sig1"] += 1
                spec["drop"] += h_out
                spec["rise"] += h_in

            for _ in range(rng.randrange(1, 60)):
                h = rng.randrange(1, 2 * N + 1)
                node = rng.choice([1, 2])
                bump(0, node, 2 * N, h)
                while node != N - 1 and rng.random() < 0.8:
                    nxt = rng.choice([x for x in range(1, N) if x != node])
                    h_next = rng.randrange(1, h + 1) if nxt != N - 1 else 0
                    bump(node, nxt, h, h_next)
                    node, h = nxt, h_next
            rs = build_reports(ring, ("f2",), edges)
            assert audit_consistency(rs, ring) is None
            assert localize_f2(rs) is None, f"trial {trial}"


class TestF3:
    def test_reference_threshold(self, ring):
        # 4n^2 - 8n = 32 for n = 4: inflow 33 with no outflow is corrupt
        edges = honest_chain_edges(count=0)
        edges[(0, 2)] = dict(sig1=33, drop=99, rise=33)
        rs = build_reports(ring, ("f3",), edges)
        assert localize_f3(rs) == Verdict(
            2, "F3-flow",
            "sum_B (SIG^2[1][B->2] - SIG^2[1][2->B]) = 33 - 0 > "
            "4n^2-8n = 32", 1)

    def test_full_buffers_not_flagged(self, ring):
        edges = honest_chain_edges(count=0)
        edges[(0, 2)] = dict(sig1=32, drop=99, rise=32)
        rs = build_reports(ring, ("f3",), edges)
        assert localize_f3(rs) is None

    def test_empty_ledgers(self, ring):
        rs = build_reports(ring, ("f3",), honest_chain_edges(count=0))
        assert localize_f3(rs) is None


class TestF4:
    def test_one_in_one_out_sums_to_zero(self, ring):
        edges = {
            (0, 1): dict(sig1=1, drop=2, rise=2, sigp=1),
            (1, 2): dict(sig1=1, drop=2, rise=1, sigp=1),
            (2, 3): dict(sig1=1, drop=1, rise=1, sigp=1),
        }
        rs = build_reports(ring, ("f4", LABEL), edges)
        assert audit_consistency(rs, ring) is None
        assert localize_f4(rs) is None

    def test_duplicating_node_found(self, ring):
        # node 2 output the labelled packet three times, received it once
        edges = {
            (0, 2): dict(sig1=1, drop=2, rise=2, sigp=1),
            (2, 3): dict(sig1=3, drop=6, rise=3, sigp=3),
        }
        rs = build_reports(ring, ("f4", LABEL), edges)
        assert localize_f4(rs) == Verdict(
            2, "F4-duplication",
            "sum_B (SIG^B[p][2->B] - SIG^2[p][B->2]) = 3 - 1 >= 1", 2)

    def test_receiver_pins_duplicator_through_honest_relay(self, ring):
        # duplicate copies all flow through honest node 1; the averaging
        # still lands on node 2 because node 1's in/out counts match
        edges = {
            (0, 2): dict(sig1=1, drop=2, rise=2, sigp=1),
            (2, 1): dict(sig1=2, drop=4, rise=2, sigp=2),
            (1, 3): dict(sig1=2, drop=2, rise=2, sigp=2),
        }
        rs = build_reports(ring, ("f4", LABEL), edges)
        assert audit_consistency(rs, ring) is None
        verdict = localize_f4(rs)
        assert verdict is not None and verdict.node == 2

    def test_label_of_another_codeword(self, ring):
        # the failed transmission carries codeword 2, and the receiver's
        # duplicate label is a replayed packet of codeword 1: the sender
        # sent none of it, node 2 sent it twice through honest node 1
        replayed = (1, 623)
        edges = {
            (0, 2): dict(sig1=1, drop=2, rise=2, sigp=0),
            (2, 1): dict(sig1=2, drop=4, rise=2, sigp=2),
            (1, 3): dict(sig1=2, drop=2, rise=2, sigp=2),
        }
        rs = build_reports(ring, ("f4", replayed), edges, label=replayed)
        assert run_localization(rs, ring) == Verdict(
            2, "F4-duplication",
            "sum_B (SIG^B[p][2->B] - SIG^2[p][B->2]) = 2 - 0 >= 1", 2)


# for each localizer: its reason, and the edges that give internal nodes 1
# and 2 the margins (m1, m2) in its incrimination inequality
MARGIN_EDGES = {
    "f2": (localize_f2, ("f2",), lambda m1, m2: {
        (1, 3): dict(drop=4 * N**3 - 4 * N**2 + m1),
        (2, 3): dict(drop=4 * N**3 - 4 * N**2 + m2)}),
    "f3": (localize_f3, ("f3",), lambda m1, m2: {
        (0, 1): dict(sig1=4 * N**2 - 8 * N + m1),
        (0, 2): dict(sig1=4 * N**2 - 8 * N + m2)}),
    "f4": (localize_f4, ("f4", LABEL), lambda m1, m2: {
        (1, 3): dict(sigp=m1), (2, 3): dict(sigp=m2)}),
}


class TestSelection:
    """F2, F3 and F4 convict the node of the largest positive margin, the
    lowest node among equal margins, and nobody at a best margin of 0."""

    @pytest.mark.parametrize("kind", sorted(MARGIN_EDGES))
    @pytest.mark.parametrize("margins,node,margin", [
        ((3, 3), 1, 3),          # a tie goes to the lower node
        ((2, 5), 2, 5),          # a larger margin beats a lower node
        ((5, 2), 1, 5),
        ((0, 0), None, None),    # a best margin of 0 convicts nobody
    ])
    def test_selection(self, ring, kind, margins, node, margin):
        localize, reason, edges = MARGIN_EDGES[kind]
        verdict = localize(build_reports(ring, reason, edges(*margins)))
        if node is None:
            assert verdict is None
        else:
            assert (verdict.node, verdict.margin) == (node, margin)


class TestPipeline:
    def test_consistency_runs_before_flow(self, ring):
        rs = build_reports(ring, ("f3",), honest_chain_edges())
        rs.reports[1].sig_nn = None
        rs.reports[2].in_edges[1]["sig1"] = LedgerEntry(-1, (T_FAIL, 9), None)
        verdict = run_localization(rs, ring)
        assert verdict.kind == "malformed-report" and verdict.node == 2

    def test_no_verdict_is_an_error(self, ring):
        rs = build_reports(ring, ("f3",), honest_chain_edges())
        with pytest.raises(LocalizationError):
            run_localization(rs, ring)

    def test_verdict_reproducible(self, ring):
        edges = honest_chain_edges(count=0)
        edges[(0, 2)] = dict(sig1=40, drop=99, rise=40)
        rs = build_reports(ring, ("f3",), edges)
        v1 = run_localization(rs, ring)
        v2 = run_localization(rs, ring)
        assert v1 == v2
