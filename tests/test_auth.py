import ast
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slidenet.auth
from slidenet.adversary import ReportForger
from slidenet.auth import (AuthNode, BlacklistParcel, ElimParcel,
                           GATE_TAGS_ANY_T, GATE_TAGS_THIS_T, LedgerEntry,
                           Omega, ReasonParcel, RemoveParcel, SenderAuth,
                           StatusParcel, Theta, REASON_F2, REASON_F3)
from slidenet.buffers import IncomingBuffer, OutgoingBuffer, Stored
from slidenet.cli import main
from slidenet.codec import Packet
from slidenet.crypto import Signed, keygen
from slidenet.engine import Engine, Scenario, run_scenario
from slidenet.localize import _evidence_ok, build_report_set
from slidenet.scenarios import attack_scenario
from slidenet.util import InvariantError
from test_golden import SCENARIOS as GOLDEN

IDS = [0, 1, 2, 3]


@pytest.fixture
def ring():
    return keygen(IDS, seed=2)


def deliver(src, dst, parcel_signed, T=1, r=1):
    hop = src.wrap_hop(parcel_signed, T, r)
    return dst.on_parcel(src.node_id, hop, T, r)


def make_nodes(ring):
    sender = SenderAuth(0, ring, IDS, 0, 3)
    internal = AuthNode(1, ring, IDS, 0, 3)
    return sender, internal


class TestGates:
    def test_blocked_until_full_sot_passes_the_link(self, ring):
        sender, node = make_nodes(ring)
        assert not node.okay_to_send(2)          # no omega yet
        omega = sender.bb[("omega", 1)][0]
        deliver(sender, node, omega)
        assert node.sot_complete()               # empty broadcast follows
        # the omega has passed the sender link but not the link to node 2
        assert node.okay_to_send(0)
        assert not node.okay_to_send(2)
        node.mark_passed(("omega", 1), 2)
        assert node.okay_to_send(2)

    def test_blacklisted_peer_blocks_transfer(self, ring):
        sender, node = make_nodes(ring)
        deliver(sender, node, sender.bb[("omega", 1)][0])
        node.mark_passed(("omega", 1), 2)
        node.bl[2] = 1
        assert not node.okay_to_send(2)
        del node.bl[2]
        node.bl[node.node_id] = 1                # self-blacklisted
        assert not node.okay_to_send(2)

    def test_pending_theta_blocks_until_passed(self, ring):
        sender, node = make_nodes(ring)
        deliver(sender, node, sender.bb[("omega", 1)][0])
        node.mark_passed(("omega", 1), 2)
        theta = node.ring.sign(node.ring.keypair(3), Theta(False, None, 1))
        node._add_parcel(theta)
        assert not node.okay_to_send(2)
        node.mark_passed(("theta", 1), 2)
        assert node.okay_to_send(2)

    def test_eliminated_peer_never_ok(self, ring):
        sender, node = make_nodes(ring)
        deliver(sender, node, sender.bb[("omega", 1)][0])
        node.mark_passed(("omega", 1), 2)
        node.en[2] = 1
        assert not node.okay_to_send(2)


class TestPacketMsg:
    def test_bad_sender_signature_dropped(self, ring):
        """A transfer whose packet no longer matches the sender's
        signature counts as undelivered, so the fragment never reaches a
        buffer or the decoder."""
        sender, node = make_nodes(ring)
        unsigned = Packet(1, 7, b"\x12\x34")
        packet = Packet(1, 7, unsigned.payload,
                        ring.sign(ring.keypair(0), unsigned.signed_body()))
        ob = OutgoingBuffer(0, 1, 8)
        ob.slots[0] = Stored(packet)
        ob.H, ob.H_IN = 1, 0
        assert ob.create_flag(1)
        ib = IncomingBuffer(1, 0, 8)
        msg = sender.build_packet_msg(ob, 1, 1)
        assert node.verify_packet_msg(ib, msg, 1, 1) == (Stored(packet), 1)
        tampered = Packet(1, 7, b"\x12\x35", packet.sender_signature)
        msg = sender.build_packet_msg(ob, 1, 1, stored=Stored(tampered))
        assert node.verify_packet_msg(ib, msg, 1, 1) is None


LABEL, OTHER = (1, 7), (1, 8)


def _put(v, pos, value):
    return v[:pos] + (value,) + v[pos + 1:]


# one-field changes to a signed statement value `v` whose per-packet count
# sits at position `p`; the verifier must refuse each
MUTATIONS = {
    "sig1+1": lambda v, p: _put(v, 5, v[5] + 1),
    "sig1-1": lambda v, p: _put(v, 5, v[5] - 1),
    "sigp-label": lambda v, p: _put(v, p, (OTHER, v[p][1])),
    "sigp-count": lambda v, p: _put(v, p, (v[p][0], v[p][1] + 1)),
    "sigp-on-stale": lambda v, p: _put(v, p, (LABEL, 1)),
    "no-sigp": lambda v, p: _put(v, p, None),
    "T": lambda v, p: _put(v, 1, v[1] + 1),
    "r": lambda v, p: _put(v, 2, v[2] + 1),
    "tag": lambda v, p: ("s1" if v[0] == "s2" else "s2",) + v[1:],
    "length": lambda v, p: v + (None,),
}
COMMON = ("sig1+1", "sig1-1", "T", "r", "tag", "length")
FRESH = COMMON + ("sigp-label", "sigp-count", "no-sigp")
STALE = COMMON + ("sigp-on-stale",)


def exchange(ring, fresh, accepted=True):
    """Sender 0 sends node 1 a fresh or stale copy of packet LABEL over
    edge (0, 1) in round (1, 1), on ledgers that agree on three earlier
    crossings; node 1 accepts it if `accepted`, or never hears it, and
    signs its stage-1 reply of round (1, 2)."""
    sender, node = make_nodes(ring)
    out, inn = sender.out_led[1], node.in_led[0]
    for led in (out, inn):
        led.sig1.set(3, (1, 0), None)
        led.set_sigp(OTHER, 2, (1, 0), None)
    out.sig2.set(4, (1, 0), None)
    out.sig3.set(5, (1, 0), None)
    inn.sig2.set(5, (1, 0), None)
    inn.sig3.set(4, (1, 0), None)
    unsigned = Packet(*LABEL, b"\x12\x34")
    packet = Packet(*LABEL, unsigned.payload,
                    ring.sign(ring.keypair(0), unsigned.signed_body()))
    ob = OutgoingBuffer(0, 1, 8)
    ob.slots[0] = Stored(packet, fresh)
    ob.H, ob.H_IN = 1, 0
    assert ob.create_flag(1)
    ib = IncomingBuffer(1, 0, 8)
    ib.fold_stage1(ob.stage1_msg())
    msg = sender.build_packet_msg(ob, 1, 1)
    if accepted:
        parsed = node.verify_packet_msg(ib, msg, 1, 1)
        _, stored, land = ib.receive(parsed, 1)
        node.sync_on_accept(ib, msg, stored, land, 1, 1)
    else:
        node.last_fresh[0] = OTHER        # a fresh copy accepted earlier
    reply = node.build_stage1_reply(ib, 1, 2, ib.H)
    return sender, node, ob, ib, msg, reply


# case -> (statement, fresh copy, copy accepted before the reply,
#          mutations refused)
COUNTER_CASES = {
    "s1-claimed-fresh": ("s1", True, True, FRESH),
    "s1-claimed-stale": ("s1", False, True, STALE),
    "s1-unclaimed": ("s1", True, False, COMMON),
    "s2-fresh": ("s2", True, False, FRESH),
    "s2-stale": ("s2", False, False, STALE),
}


def _verify(ring, case, change=None, relaxed=False):
    """Run the case's verifier on its honest statement, or on that
    statement with `change` applied and signed again by its signer."""
    tag, fresh, accepted, _ = COUNTER_CASES[case]
    sender, node, ob, ib, msg, reply = exchange(ring, fresh, accepted)
    sender.relaxed_verify = node.relaxed_verify = relaxed
    signer, signed = (node, reply) if tag == "s1" else (sender, msg)
    if change is not None:
        signed = signer.sign(change(signed.value))
    if tag == "s1":
        return sender.verify_stage1_reply(ob, signed, 1, 2), signed
    return node.verify_packet_msg(ib, signed, 1, 1), signed


class TestCounterRule:
    """Each verifier accepts the statement its counterpart builds and
    refuses it after any one-field change: the net count and the
    per-packet count advance for a fresh copy only."""

    @pytest.mark.parametrize("case", sorted(COUNTER_CASES))
    def test_honest_statement_accepted(self, ring, case):
        got, signed = _verify(ring, case)
        if signed.value[0] == "s1":
            assert got == signed.value[3:5]
        else:
            assert got == (Stored(signed.value[3], case == "s2-fresh"), 1)

    @pytest.mark.parametrize("case,mutation", [
        (case, m) for case, spec in sorted(COUNTER_CASES.items())
        for m in spec[3]])
    def test_one_field_change_refused(self, ring, case, mutation):
        pos = 7 if COUNTER_CASES[case][0] == "s1" else 8
        got, _ = _verify(ring, case, lambda v: MUTATIONS[mutation](v, pos))
        assert got is None

    # position of every field a verifier computes with
    TYPED_FIELDS = {"s1-height": 3, "s1-rr": 4, "s1-sig1": 5, "s1-sig3": 6,
                    "s2-packet": 3, "s2-FR": 4, "s2-sig1": 5, "s2-sig3": 7}

    @pytest.mark.parametrize("relaxed", [False, True],
                             ids=["honest", "relaxed"])
    @pytest.mark.parametrize("field", sorted(TYPED_FIELDS))
    def test_mistyped_field_refused(self, ring, field, relaxed):
        """A corrupt node may sign any value as itself: a well-signed
        statement with a non-int counter, height or round, or an s2
        whose packet is no Packet, is an edge failure, also for a
        verifier that skips the counter checks."""
        case = "s1-claimed-fresh" if field[:2] == "s1" else "s2-fresh"
        pos = self.TYPED_FIELDS[field]
        got, _ = _verify(ring, case, lambda v: _put(v, pos, "x"), relaxed)
        assert got is None

    def test_evidence_sides(self, ring):
        """A ledger value is backed by an s1 for an outgoing edge and an
        s2 for an incoming one, signed by the counterpart; the other
        statement, however signed, is refused."""
        sender, node, ob, ib, msg, reply = exchange(ring, True)
        assert sender.verify_stage1_reply(ob, reply, 1, 2) is not None
        sender.sync_on_confirm(ob, reply, ob.H_FP, 0, 1, 2)
        held = {"out": (sender.out_led[1], 1), "in": (node.in_led[0], 0)}
        for side, (led, peer) in held.items():
            for name in ("sig1", "sig2", "sigp"):
                entry = led.sigp[LABEL] if name == "sigp" \
                    else getattr(led, name)
                assert _evidence_ok(entry, side, name, peer, ring, 1, LABEL)
                other = (msg if side == "out" else reply).value
                swapped = LedgerEntry(entry.value, other[1:3], ring.sign(
                    ring.keypair(peer), other))
                assert not _evidence_ok(swapped, side, name, peer, ring, 1,
                                        LABEL)


def _written(*nodes):
    """Every ledger value and broadcast-buffer entry of `nodes`, with its
    passed set: what a refused statement or parcel must leave as it was."""
    return [({key: set(entry[1]) for key, entry in a.bb.items()},
             [(led.sig1.value, led.sig1.stamp, led.sig2.value, led.sig2.stamp,
               led.sig3.value, led.sig3.stamp,
               {k: (e.value, e.stamp) for k, e in led.sigp.items()})
              for table in (a.out_led, a.in_led) for led in table.values()],
             dict(a.bl))
            for a in nodes]


class TestSignedExchangeRejections:
    """The branches that keep a corrupt node from passing off a statement
    or a parcel it could not have made.  Each refuses, and writes no
    ledger value and no broadcast-buffer entry."""

    def test_open_refuses_statement_signed_by_another_node(self, ring):
        sender, node, ob, ib, msg, reply = exchange(ring, True)
        before = _written(sender, node)
        other = ring.keypair(2)
        assert sender.verify_stage1_reply(
            ob, ring.sign(other, reply.value), 1, 2) is None
        assert node.verify_packet_msg(
            ib, ring.sign(other, msg.value), 1, 1) is None
        assert _written(sender, node) == before

    @pytest.mark.parametrize("drop", ["negative", "above-flag"])
    def test_verify_stage1_reply_refuses_drop_outside_flag_height(
            self, ring, drop):
        """A reply confirming the flagged packet whose own potential
        change sig3 claims a drop outside [0, H_FP]; only sig3 differs
        from the honest reply, so only the drop check can refuse it."""
        sender, node, ob, ib, msg, reply = exchange(ring, True)
        assert sender.verify_stage1_reply(ob, reply, 1, 2) is not None
        sig2 = sender.out_led[1].sig2.value
        sig3 = sig2 - 1 if drop == "negative" else sig2 + ob.H_FP + 1
        before = _written(sender, node)
        forged = node.sign(_put(reply.value, 6, sig3))
        assert sender.verify_stage1_reply(ob, forged, 1, 2) is None
        assert _written(sender, node) == before

    def test_verify_packet_msg_refuses_packet_not_signed_by_sender(
            self, ring):
        """A node may sign a transfer of a fragment it made up; the
        fragment carries its maker's signature, not the sender's."""
        sender, node, ob, ib, msg, reply = exchange(ring, True, False)
        relay = AuthNode(2, ring, IDS, 0, 3)
        made_up = Packet(*LABEL, b"\x12\x34")
        made_up = replace(made_up, sender_signature=relay.sign(
            made_up.signed_body()))
        before = _written(sender, node, relay)
        forged = relay.sign(_put(msg.value, 3, made_up))
        assert node.verify_packet_msg(IncomingBuffer(1, 2, 8), forged, 1,
                                      1) is None
        assert _written(sender, node, relay) == before

    def test_verify_packet_msg_refuses_drop_below_landing_height(self, ring):
        """A transfer whose sig3 claims less drop than the height the
        packet lands at; only sig3 differs from the honest transfer."""
        sender, node, ob, ib, msg, reply = exchange(ring, True, False)
        assert node.verify_packet_msg(ib, msg, 1, 1) is not None
        sig3 = node.in_led[0].sig2.value + ib.landing_height() - 1
        before = _written(sender, node)
        forged = sender.sign(_put(msg.value, 7, sig3))
        assert node.verify_packet_msg(ib, forged, 1, 1) is None
        assert _written(sender, node) == before

    # forgeries of a hop from `peer` carrying the signed parcel `inner`:
    # the hop signed by a third node, the parcel altered after signing,
    # the parcel signed by a node its type does not accept, and a signed
    # value that is no parcel
    HOPS = {
        "hop-signer": lambda ring, peer, inner: (
            ring.keypair(2), inner),
        "parcel-signature": lambda ring, peer, inner: (
            ring.keypair(peer), Signed(replace(inner.value, T=9),
                                       inner.signer, inner.signature)),
        "parcel-signer": lambda ring, peer, inner: (
            ring.keypair(peer), ring.sign(ring.keypair(2), inner.value)),
        "not-a-parcel": lambda ring, peer, inner: (
            ring.keypair(peer), ring.sign(ring.keypair(inner.signer),
                                          ("omega", 1))),
    }

    @pytest.mark.parametrize("forgery", sorted(HOPS))
    @pytest.mark.parametrize("at", ["node", "sender"])
    def test_unwrap_hop_refusals_absorb_nothing(self, ring, at, forgery):
        """`on_parcel` of a node (from the sender, an omega) and of the
        sender (from node 1, the receiver's end-of-transmission parcel)
        returns no event for a forged hop and marks nothing passed."""
        sender, node = make_nodes(ring)
        if at == "node":
            dst, peer = node, 0
            inner = sender.bb[("omega", 1)][0]
        else:
            dst, peer = sender, 1
            inner = ring.sign(ring.keypair(3), Theta(True, None, 1))
        hop_key, inner = self.HOPS[forgery](ring, peer, inner)
        hop = ring.sign(hop_key, ("hop", 1, 1, inner))
        assert dst.unwrap_hop(hop, peer, 1, 1) is None
        before = _written(dst)
        assert dst.on_parcel(peer, hop, 1, 1) == []
        assert _written(dst) == before and dst.cbp_out[peer] == 0
        if at == "sender":
            assert sender.theta is None

    def blacklisted(self, ring, reasons):
        """Node 1 at transmission 2, having absorbed a start-of-transmission
        broadcast that blacklists node 2 for failed transmission 1, with
        the failure reason parcels `reasons`."""
        sender = SenderAuth(0, ring, IDS, 0, 3)
        sender.bb = {}
        sender._install_sot(2, Omega(0, 1, len(reasons), REASON_F3, 2), [],
                            reasons, [(2, 1)])
        node = AuthNode(1, ring, IDS, 0, 3)
        node.current_T = 2
        for signed, _ in list(sender.bb.values()):
            deliver(sender, node, signed, T=2)
        assert node.bl == {2: 1}
        return node, AuthNode(2, ring, IDS, 0, 3)

    def test_status_shape_refuses_reason_other_than_reason_parcel(self,
                                                                  ring):
        node, origin = self.blacklisted(ring, [(1, REASON_F3)])
        part = ("edge", 0)
        before = _written(node)
        wrong = origin.sign(StatusParcel(2, 1, REASON_F2, part, ()))
        assert deliver(origin, node, wrong, T=2) == []
        assert _written(node) == before
        right = origin.sign(StatusParcel(2, 1, REASON_F3, part, ()))
        deliver(origin, node, right, T=2)
        assert ("status", 2, 1, part) in node.bb

    def test_no_reason_parcel_no_request_and_no_status(self, ring):
        """Without a reason parcel for the failure, `_reason_for` finds no
        reason, so `_missing_part` names no part to request and a status
        parcel has no shape to match."""
        node, origin = self.blacklisted(ring, [])
        assert node._reason_for(1) is None
        assert node._missing_part(2, 1) is None
        assert node.make_request(2) is None
        before = _written(node)
        status = origin.sign(StatusParcel(2, 1, REASON_F3, ("edge", 0), ()))
        assert deliver(origin, node, status, T=2) == []
        assert _written(node) == before

    def test_sender_ignores_status_for_failure_without_record(self, ring):
        """A status parcel for a failure the sender keeps no record of: no
        event, no report slot.  A run never reaches this, since the sender
        blacklists a node only beside a failure record."""
        sender = SenderAuth(0, ring, IDS, 0, 3)
        sender.bl[2] = 1
        origin = AuthNode(2, ring, IDS, 0, 3)
        before = _written(sender)
        status = origin.sign(StatusParcel(2, 1, REASON_F3, ("edge", 0), ()))
        assert sender._on_status_parcel(status.value, status) == []
        assert sender.reports == {}
        assert _written(sender) == before


class TestSotOrdering:
    def build_sot(self, ring):
        sender = SenderAuth(0, ring, IDS, 0, 3)
        sender.bb = {}
        sender._install_sot(2, Omega(1, 1, 1, REASON_F3, 2), [2],
                            [(1, REASON_F3)], [(1, 1)])
        return sender

    def parcels(self, sender):
        return {key: entry[0] for key, entry in sender.bb.items()}

    def test_out_of_order_rejected_then_accepted(self, ring):
        sender = self.build_sot(ring)
        node = AuthNode(1, ring, IDS, 0, 3)
        node.current_T = 2
        ps = self.parcels(sender)
        # blacklist parcel before omega/elims/reasons: ignored, unconfirmed
        deliver(sender, node, ps[("bl", 1, 1, 2)], T=2)
        assert ("bl", 1, 1, 2) not in node.bb and node.cbp_out[0] == 0
        deliver(sender, node, ps[("omega", 2)], T=2)
        deliver(sender, node, ps[("reason", 1, 2)], T=2)
        assert ("reason", 1, 2) not in node.bb    # elimination still missing
        deliver(sender, node, ps[("elim", 2, 2)], T=2)
        deliver(sender, node, ps[("reason", 1, 2)], T=2)
        deliver(sender, node, ps[("bl", 1, 1, 2)], T=2)
        assert node.sot_complete()
        assert node.bl == {1: 1}

    def test_elimination_wipes_state(self, ring):
        sender = self.build_sot(ring)
        node = AuthNode(1, ring, IDS, 0, 3)
        node.current_T = 2
        node.claims.add((2, 3, 1))
        ps = self.parcels(sender)
        deliver(sender, node, ps[("omega", 2)], T=2)
        events = deliver(sender, node, ps[("elim", 2, 2)], T=2)
        assert ("wipe", 2) in events
        assert node.en == {2: 2} and node.claims == set()

    def test_own_blacklist_parcel_generates_report(self, ring):
        sender = self.build_sot(ring)
        node = AuthNode(1, ring, IDS, 0, 3)
        node.current_T = 2
        ps = self.parcels(sender)
        deliver(sender, node, ps[("omega", 2)], T=2)
        deliver(sender, node, ps[("elim", 2, 2)], T=2)
        deliver(sender, node, ps[("reason", 1, 2)], T=2)
        deliver(sender, node, ps[("bl", 1, 1, 2)], T=2)
        own = [k for k in node.bb if k[0] == "status" and k[1] == 1]
        # one parcel per non-eliminated neighbor (0 and 3; 2 was eliminated)
        assert len(own) == 2
        assert ("know", 1, 1, 1) in node.bb

    def test_removal_prunes_and_unblacklists(self, ring):
        sender = self.build_sot(ring)
        node = AuthNode(1, ring, IDS, 0, 3)
        node.current_T = 2
        ps = self.parcels(sender)
        for key in (("omega", 2), ("elim", 2, 2), ("reason", 1, 2),
                    ("bl", 1, 1, 2)):
            deliver(sender, node, ps[key], T=2)
        assert 1 in node.bl
        removal = sender.sign(RemoveParcel(1, 2))
        deliver(sender, node, removal, T=2)
        assert 1 not in node.bl
        assert not [k for k in node.bb if k[0] == "status"]

    def test_kept_gate_counts_follow_a_prune(self, ring):
        """A removal prunes the node's own knowledge claim, which gates
        transfers until it has passed; the kept gate counts follow."""
        sender = self.build_sot(ring)
        node = AuthNode(1, ring, IDS, 0, 3)
        node.current_T = 2
        ps = self.parcels(sender)
        for key in (("omega", 2), ("elim", 2, 2), ("reason", 1, 2),
                    ("bl", 1, 1, 2)):
            deliver(sender, node, ps[key], T=2)
        assert ("know", 1, 1, 1) in node.bb
        assert kept_state(node) == scanned_state(node)
        deliver(sender, node, sender.sign(RemoveParcel(1, 2)), T=2)
        assert ("know", 1, 1, 1) not in node.bb
        assert kept_state(node) == scanned_state(node)


@pytest.mark.parametrize("decoded", [True, False], ids=["ok", "f3"])
def test_sender_reshuffle_total_cleared_at_transmission_end(ring, decoded):
    """The sender clears its re-shuffle total at every transmission end,
    as every other node does at each start of transmission."""
    sender = SenderAuth(0, ring, IDS, 0, 3)
    sender.add_local_drop(7)
    sender.theta = Theta(decoded, None, 1)
    reason, _ = sender.prepare_sot(10, 10)
    assert reason[0] == ("ok" if decoded else "f3")
    assert sender.sig_nn == 0


def test_malformed_status_payload_eliminates_its_author(tmp_path,
                                                        monkeypatch):
    """A status report whose records are not ledger records is a
    mismatched parcel: its author is eliminated, and the run ends
    normally."""
    def forge(self, parcels):
        return [replace(p, payload=(("out", "sig1"),)) for p in parcels]
    monkeypatch.setattr(ReportForger, "forge_report", forge)
    path = tmp_path / "scenario.json"
    sc = attack_scenario(4, {2: "report-forger"}, messages=1)
    path.write_text(json.dumps(sc.to_dict()))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [(e["node"], e["kind"]) for e in report["eliminations"]] == \
        [(2, "malformed-report")]


@pytest.fixture(scope="module")
def outcome():
    sc = Scenario(n=4, mode="auth", messages=2, max_transmissions=3,
                  checks="full")
    return run_scenario(sc)


class TestHonestAuthRun:
    def test_delivery(self, outcome):
        report, eng = outcome
        assert [d["message"] for d in report["delivered"]] == [1, 2]
        assert all(t["result"] == "ok" for t in report["transmissions"])

    def test_sender_inserted_full_codeword(self, outcome):
        report, _ = outcome
        assert all(t["kappa"] == 1024 for t in report["transmissions"])

    def test_eot_parcel_latency(self, outcome):
        report, eng = outcome
        for t in report["transmissions"]:
            assert t["theta_created"] == eng.L - eng.n + 1
            assert t["theta_arrival"] is not None
            assert t["theta_arrival"] - t["theta_created"] <= eng.n

    def test_wasted_rounds_bound(self, outcome):
        report, eng = outcome
        for t in report["transmissions"]:
            assert t["wasted"] <= 4 * eng.n**3

    def test_signature_buffer_budget(self, outcome):
        report, eng = outcome
        for stats in report["memory"].values():
            assert stats["sig_entries_per_edge"] <= eng.D + 3
            assert stats["broadcast_buffer"] <= eng.n**2 + 5 * eng.n

    def test_churn_auth_delivery(self):
        sc = Scenario(n=4, mode="auth", messages=1, max_transmissions=2,
                      schedule_kind="churn", schedule_p=0.2,
                      schedule_seed=11, checks="full")
        report, _ = run_scenario(sc)
        assert len(report["delivered"]) == 1


def _delivers(eng, x, y) -> bool:
    """The delivery predicate of pair (x, y) in the engine's current
    round, from the edge's mask bit, suppression and both eliminated
    sets."""
    return (eng.schedule.active(eng.g_round, x, y) and not eng._suppressed(x)
            and x not in eng.auth[y].en and y not in eng.auth[x].en)


def test_every_stage1_reply_built_is_delivered(monkeypatch):
    """Over golden ghost-n4, whose silenced node sends nothing, a stage-1
    reply b -> a is signed only when that direction delivers, and each
    one built on round (T, r) is verified by its peer on that round."""
    built, verified, engines = [], [], []
    build, verify = AuthNode.build_stage1_reply, AuthNode.verify_stage1_reply
    stage1 = Engine._stage1

    def recording_stage1(eng):
        engines.append(eng)
        stage1(eng)

    def recording_build(self, ib, T, r, height):
        built.append((ib.peer, self.node_id, T, r,
                      _delivers(engines[-1], self.node_id, ib.peer)))
        return build(self, ib, T, r, height=height)

    def recording_verify(self, ob, signed, T, r):
        verified.append((self.node_id, ob.peer, T, r, True))
        return verify(self, ob, signed, T, r)

    monkeypatch.setattr(Engine, "_stage1", recording_stage1)
    monkeypatch.setattr(AuthNode, "build_stage1_reply", recording_build)
    monkeypatch.setattr(AuthNode, "verify_stage1_reply", recording_verify)
    run_scenario(GOLDEN["ghost-n4"]())
    assert built and sorted(built) == sorted(verified)


@pytest.mark.parametrize("name,cause", [("deleter-n4", "eliminated"),
                                        ("ghost-n4", "suppressed")])
def test_delivery_list_matches_predicate(monkeypatch, name, cause):
    """In every round, `_delivery[i]` is the predicate of `all_pairs[i]`.
    deleter-n4 eliminates node 2; ghost-n4 suppresses it."""
    seen = {"off": 0, "suppressed": 0, "eliminated": 0}
    stage1 = Engine._stage1

    def checking_stage1(eng):
        assert len(eng._delivery) == len(eng.all_pairs)
        for (x, y, ax, ay), delivered in zip(eng.all_pairs, eng._delivery):
            assert delivered == _delivers(eng, x, y)
            seen["off"] += not delivered
            seen["suppressed"] += eng._suppressed(x)
            seen["eliminated"] += x in ay.en or y in ax.en
        stage1(eng)

    monkeypatch.setattr(Engine, "_stage1", checking_stage1)
    run_scenario(GOLDEN[name]())
    assert seen["off"] and seen[cause]


def test_sot_counts_match_broadcast_buffer(monkeypatch):
    """At the end of every executed round of every golden auth run, each
    non-sender node's start-of-transmission record agrees with its
    broadcast buffer: its omega is the buffered omega, and each stage's
    count is the number of that stage's parcels buffered for the
    transmission.  The sender is left out: a restart clears its buffer,
    while the record of its current transmission must stay complete."""
    stages = ("elim", "reason", "bl")
    counted = dict.fromkeys(stages, 0)
    post_round = Engine._post_round

    def checking_post_round(eng):
        post_round(eng)
        for node, auth in eng.auth.items():
            if node == eng.S:
                continue
            for T, (omega, *counts) in auth.sot.items():
                assert auth.bb[("omega", T)][0].value == omega
                assert counts == [sum(key[0] == tag and key[-1] == T
                                      for key in auth.bb) for tag in stages]
                for tag, count in zip(stages, counts):
                    counted[tag] = max(counted[tag], count)

    monkeypatch.setattr(Engine, "_post_round", checking_post_round)
    for make in GOLDEN.values():
        scenario = make()
        if scenario.mode == "auth":
            run_scenario(scenario)
    # every stage's count was exercised above zero
    assert all(counted.values()), counted


def scanned_state(auth):
    """The kept gate counts, start-of-transmission flag, ledger maximum
    and transfer verdicts of `auth`, found afresh by scanning its
    broadcast buffer, `sot` record and ledgers."""
    T = auth.current_T
    gating = {}
    for peer in auth.peers:
        gating[peer] = 0
        for key, (_, passed) in auth.bb.items():
            if peer not in passed and (key[0] in GATE_TAGS_ANY_T or (
                    key[0] in GATE_TAGS_THIS_T and key[-1] == T)):
                gating[peer] += 1
    sot_ok = auth._sot_done(T) == 4
    entries = 0
    for ledgers in (auth.out_led, auth.in_led):
        for led in ledgers.values():
            entries = max(entries, led.entries())
    okay = {peer: peer not in auth.en and sot_ok
            and auth.node_id not in auth.bl and peer not in auth.bl
            and gating[peer] == 0 for peer in auth.peers}
    return gating, sot_ok, entries, okay


def kept_state(auth):
    return (auth.gating, auth.sot_complete(), auth.sig_entries,
            {peer: auth.okay_to_transfer(peer) for peer in auth.peers})


def test_kept_auth_state_matches_scan(monkeypatch):
    """After every executed round and every transmission end of every
    golden auth run, each node's kept gate counts, start-of-transmission
    flag and ledger maximum equal a fresh scan, and so does its transfer
    verdict for every peer."""
    seen = {"gated": 0, "sot_open": 0, "grown": 0}

    def checking(method):
        def run(eng):
            method(eng)
            for auth in eng.auth.values():
                scanned = scanned_state(auth)
                assert kept_state(auth) == scanned
                seen["gated"] += any(scanned[0].values())
                seen["sot_open"] += not scanned[1]
                seen["grown"] += scanned[2] > 3
        return run

    for name in ("_post_round", "_end_transmission"):
        monkeypatch.setattr(Engine, name, checking(getattr(Engine, name)))
    for make in GOLDEN.values():
        scenario = make()
        if scenario.mode == "auth":
            run_scenario(scenario)
    # each kept value was seen away from its resting value
    assert all(seen.values()), seen


def test_watermark_counts_ledgers_as_rounds_end(ring):
    """An adoption that grows a ledger to a new high, then an omega that
    clears the ledgers, in one round: `note_watermarks` at the round's end
    counts only what the round ended with."""
    sender, node, *_ = exchange(ring, True)
    assert node.in_led[0].entries() == 5          # OTHER and LABEL
    assert node.sig_entries == 5
    deliver(sender, node, sender.bb[("omega", 1)][0])
    assert node.in_led[0].entries() == 3
    node.note_watermarks()
    assert node.max_sig_entries == 3


class TestLedgerPairing:
    """The engine's after-confirmation check that the two ledgers of an
    honest edge agree: the one-step count comparison must raise on exactly
    the ledger states the per-label comparison raises on."""

    @pytest.fixture
    def pair(self):
        eng = Engine(Scenario(n=4, mode="auth"))
        la, lb = eng.auth[1].out_led[2], eng.auth[2].in_led[1]
        for led in (la, lb):
            led.sig1.set(2, (1, 5), None)
            led.sig2.set(3 if led is la else 4, (1, 5), None)
            led.sig3.set(4 if led is la else 3, (1, 5), None)
            for r, label in enumerate([(1, 0), (1, 7), (1, 3)]):
                led.set_sigp(label, 1, (1, r), None)
        eng._check_ledger_pairing(1, 2)
        return eng, la, lb

    def test_mismatch_on_older_label_raises(self, pair):
        eng, la, lb = pair
        lb.set_sigp((1, 0), 2, (1, 6), None)      # not the latest label
        with pytest.raises(InvariantError, match="ledger mismatch"):
            eng._check_ledger_pairing(1, 2)

    def test_swapped_sig2_sig3_raises(self, pair):
        eng, la, lb = pair
        lb.sig2.set(3, (1, 6), None)
        lb.sig3.set(4, (1, 6), None)
        with pytest.raises(InvariantError, match="ledger mismatch"):
            eng._check_ledger_pairing(1, 2)

    def test_label_only_in_counterpart_passes(self, pair):
        eng, la, lb = pair
        lb.set_sigp((1, 9), 1, (1, 6), None)
        eng._check_ledger_pairing(1, 2)

    def test_zero_count_label_missing_from_counterpart_passes(self, pair):
        eng, la, lb = pair
        la.set_sigp((1, 9), 0, (1, 6), None)
        eng._check_ledger_pairing(1, 2)
        la.set_sigp((1, 9), 1, (1, 7), None)
        with pytest.raises(InvariantError, match="ledger mismatch"):
            eng._check_ledger_pairing(1, 2)

    def test_clear_empties_sigp(self, pair):
        _, la, _ = pair
        la.clear(2)
        assert la.sigp == {}


def per_label_pairing(la, lb) -> bool:
    """The reference for `_check_ledger_pairing`, label by label: the
    three scalar pairs, then every per-packet count of `la` against
    `lb`'s, an absent label reading as 0."""
    ok = (la.sig1.value == lb.sig1.value
          and la.sig2.value == lb.sig3.value
          and la.sig3.value == lb.sig2.value)
    if ok:
        for label, entry in la.sigp.items():
            if lb.sigp_value(label) != entry.value:
                ok = False
                break
    return ok


LABELS = [(1, 0), (1, 1), (1, 2)]
END = st.sampled_from(["out", "in"])
# one write at one end of edge (1, 2): a per-packet count (zero included),
# a counterpart's statement adopted, or the end's ledger cleared
LEDGER_STEP = st.one_of(
    st.tuples(st.just("set"), END, st.sampled_from(LABELS),
              st.integers(0, 2)),
    st.tuples(st.just("adopt"), END, st.integers(0, 1), st.integers(0, 1),
              st.one_of(st.none(), st.tuples(st.sampled_from(LABELS),
                                             st.integers(0, 2))),
              st.sampled_from([None, 0, 1])),
    st.tuples(st.just("clear"), END, st.integers(1, 3)))


@settings(max_examples=300, deadline=None)
@given(st.lists(LEDGER_STEP, max_size=25))
def test_pairing_record_verdict_matches_per_label_check(steps):
    """On ledgers the engine paired, `_check_ledger_pairing` raises after a
    step exactly when the per-label comparison fails."""
    eng = Engine(Scenario(n=4, mode="auth"))
    ends = {"out": eng.auth[1].out_led[2], "in": eng.auth[2].in_led[1]}
    for r, (kind, end, *args) in enumerate(steps, 1):
        led = ends[end]
        if kind == "set":
            label, value = args
            led.set_sigp(label, value, (1, r), None)
        elif kind == "adopt":
            sig1, sig2, sigp, own_drop = args
            # s1 carries (sig1, sig2, sigp) at 5-7, s2 at 5, 7 and 8
            value = (("s1", 1, r, 0, 0, sig1, sig2, sigp) if end == "out"
                     else ("s2", 1, r, None, 0, sig1, 0, sig2, sigp))
            led.adopt(eng.auth[2 if end == "out" else 1].sign(value),
                      (1, r), own_drop)
        else:
            led.clear(args[0])
        try:
            eng._check_ledger_pairing(1, 2)
            verdict = True
        except InvariantError:
            verdict = False
        assert verdict == per_label_pairing(ends["out"], ends["in"])


class TestReportRoundTrip:
    """Ledger entries each node holds, through `make_own_report`, signing
    and delivery, come back out of `localize.build_report_set` with the
    same value, stamp and evidence; so does the sender's own archive."""

    LABEL, OTHER = (1, 7), (1, 8)
    CASES = {
        "f2": (5, None, LABEL, ("sig2", "sig3")),
        "f3": (10, None, LABEL, ("sig1",)),
        "f4": (10, LABEL, LABEL, ("sigp",)),
        "f4-label-absent": (10, LABEL, OTHER, ("sigp",)),
    }

    @staticmethod
    def fill(node, sigp_label):
        """Give every ledger entry of `node` its own value, stamp and
        evidence, and a per-packet entry at `sigp_label`."""
        k = 100 * node.node_id
        for ledgers in (node.out_led, node.in_led):
            for led in ledgers.values():
                for name in ("sig1", "sig2", "sig3"):
                    k += 1
                    getattr(led, name).set(k, (1, k), node.sign(("ev", k)))
                k += 1
                led.set_sigp(sigp_label, k, (1, k), node.sign(("ev", k)))
        node.sig_nn = k + 1

    @staticmethod
    def held(node, names, label):
        """{(side, peer, field): (value, stamp, evidence)} of the entries
        `node` holds; an absent per-packet entry reads as zero."""
        view = {}
        for side, ledgers in (("out", node.out_led), ("in", node.in_led)):
            for peer, led in ledgers.items():
                for name in names:
                    entry = (led.sigp.get(label) if name == "sigp"
                             else getattr(led, name))
                    view[(side, peer, name)] = (
                        (0, (0, 0), None) if entry is None
                        else (entry.value, entry.stamp, entry.evidence))
        return view

    @staticmethod
    def reported(rep):
        return {(side, peer, name): (rv.value, rv.stamp, rv.evidence)
                for side, edges in (("out", rep.out_edges),
                                    ("in", rep.in_edges))
                for peer, table in edges.items()
                for name, rv in table.items()}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_values_stamps_and_evidence_survive(self, ring, case):
        kappa, dup_label, sigp_label, names = self.CASES[case]
        sender = SenderAuth(0, ring, IDS, 0, 3)
        nodes = [AuthNode(i, ring, IDS, 0, 3) for i in (1, 2, 3)]
        for node in [sender] + nodes:
            self.fill(node, sigp_label)
        own_names = ("sig1", "sig2", "sig3") + (
            ("sigp",) if dup_label else ())
        sender_held = self.held(sender, own_names, dup_label)
        sender.theta = Theta(False, dup_label, 1)
        reason, participants = sender.prepare_sot(kappa, 10)
        assert reason[0] == case[:2] and participants == IDS
        events = []
        for node in nodes:
            for parcel in node.make_own_report(1, reason):
                events += deliver(node, sender, node.sign(parcel), T=2)
        assert events == [("localize", 1)]
        rs = build_report_set(sender, 1, len(IDS))
        assert self.reported(rs.reports[0]) == sender_held
        assert rs.reports[0].sig_nn is None
        for node in nodes:
            rep = rs.reports[node.node_id]
            assert self.reported(rep) == self.held(node, names, dup_label)
            if reason[0] == "f2":
                assert (rep.sig_nn.value, rep.sig_nn.stamp,
                        rep.sig_nn.evidence) == (node.sig_nn, (0, 0), None)
            else:
                assert rep.sig_nn is None

    # one change each to the shape of the records `EdgeLedger.records`
    # makes for an F3 report's edge part
    BAD_PAYLOADS = {
        "not-a-tuple": lambda recs: list(recs),
        "short-record": lambda recs: (recs[0][:2],) + recs[1:],
        "self-side": lambda recs: (("self",) + recs[0][1:],) + recs[1:],
        "foreign-field": lambda recs: (recs[0][:1] + ("sig2",)
                                       + recs[0][2:],) + recs[1:],
        "str-value": lambda recs: (recs[0][:3] + ("x",)
                                   + recs[0][4:],) + recs[1:],
        "str-stamp": lambda recs: (recs[0][:4] + ("x",)
                                   + recs[0][5:],) + recs[1:],
    }

    @pytest.mark.parametrize("change", sorted(BAD_PAYLOADS))
    def test_malformed_records_are_a_mismatched_parcel(self, ring, change):
        sender = SenderAuth(0, ring, IDS, 0, 3)
        node = AuthNode(1, ring, IDS, 0, 3)
        self.fill(node, self.LABEL)
        sender.theta = Theta(False, None, 1)
        reason, _ = sender.prepare_sot(10, 10)
        parcel = node.make_own_report(1, reason)[0]
        bad = replace(parcel, payload=self.BAD_PAYLOADS[change](
            parcel.payload))
        events = deliver(node, sender, node.sign(bad), T=2)
        assert [ev[:2] for ev in events] == [("eliminate", 1)]


def _imported_modules(tree):
    """Every module name an import in `tree` can bind, a relative import
    read from inside the slidenet package: `from .x import y` names both
    slidenet.x and slidenet.x.y."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["slidenet" if node.level else "",
                                            node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_auth_imports_nothing_from_localize():
    """`localize` builds on `auth`, so no import in auth.py, a lazy one
    inside a function included, may name `localize`."""
    with open(slidenet.auth.__file__) as fh:
        tree = ast.parse(fh.read())
    names = list(_imported_modules(tree))
    assert "slidenet.buffers" in names
    assert [name for name in names if name == "slidenet.localize"
            or name.startswith("slidenet.localize.")] == []
