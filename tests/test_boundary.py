"""The receiver at the transmission boundary: its storage is emptied at
every boundary, in both modes, so a retry counts only the packets it
sends itself, and a receiver that decoded moves on to the next
codeword."""

from slidenet.buffers import Stored
from slidenet.codec import Packet
from slidenet.engine import Engine, Scenario, run_scenario
from slidenet.node import RECEIVER, NodeState
from slidenet.scenarios import attack_scenario

_POST_ROUND = Engine._post_round
_END = Engine._end_transmission


def _record_boundaries(monkeypatch):
    """At each boundary: (T, storage size, decoded) of the receiver just
    before, and (storage size, decoded, codeword, duplicate label) just
    after."""
    seen = []

    def end_transmission(self):
        rx = self.nodes[self.R]
        before = (len(rx.storage), rx.decoded)
        _END(self)
        seen.append((self.T, before, (len(rx.storage), rx.decoded,
                                      rx.current_codeword,
                                      rx.duplicate_label)))
    monkeypatch.setattr(Engine, "_end_transmission", end_transmission)
    return seen


def _drain_stops_after(monkeypatch, cut):
    """The receiver drains nothing after round `cut` of transmission 1."""
    def post_round(self):
        rx = self.nodes[self.R]
        if self.T == 1 and self.r_local > cut:
            rx.receiver_drain = lambda params, on_message: None
        else:
            rx.__dict__.pop("receiver_drain", None)
        _POST_ROUND(self)
    monkeypatch.setattr(Engine, "_post_round", post_round)


def test_slide_retry_receiver_starts_empty(monkeypatch):
    """With checks off, a slide transmission whose receiver stops draining
    at round 200 ends undecoded; its retry starts with empty storage."""
    _drain_stops_after(monkeypatch, 200)
    seen = _record_boundaries(monkeypatch)
    report, _ = run_scenario(Scenario(
        n=4, mode="slide", messages=2, max_transmissions=3,
        schedule_kind="static", seed=0, checks="off"))
    assert seen == [(1, (590, False), (0, False, 1, None)),
                    (2, (1024, True), (0, False, 2, None)),
                    (3, (642, True), (0, False, 3, None))]
    # the retry re-sends message 1, in the same rounds as when the
    # receiver kept transmission 1's fragments
    assert [(d["message"], d["round"], d["T"])
            for d in report["delivered"]] == [(1, 3293, 2), (2, 6361, 3)]


def test_auth_retry_receiver_starts_empty(monkeypatch):
    """A deleter's failed transmission leaves the receiver undecoded; the
    retry after the elimination starts with empty storage."""
    seen = _record_boundaries(monkeypatch)
    report, _ = run_scenario(attack_scenario(4, {2: "deleter"}))
    assert [t["result"] for t in report["transmissions"]] == \
        ["f3", "eliminated", "ok"]
    assert seen == [(1, (256, False), (0, False, 1, None)),
                    (2, (0, False), (0, False, 1, None)),
                    (3, (1023, True), (0, False, 2, None))]


def test_packet_of_another_codeword_sets_duplicate_label():
    """A fresh packet of another codeword is dropped, and its label becomes
    the receiver's duplicate label; a stale one is dropped silently."""
    rx = NodeState(3, RECEIVER, [0, 1, 2, 3], 0, 3)
    replayed = Packet(rx.current_codeword + 1, 5, b"\0\0")
    rx._receiver_take(Stored(replayed, fresh=False))
    assert (rx.storage, rx.duplicate_label) == ({}, None)
    rx._receiver_take(Stored(replayed))
    assert (rx.storage, rx.duplicate_label) == ({}, replayed.label())
    current = Packet(rx.current_codeword, 5, b"\0\0")
    rx._receiver_take(Stored(current))
    assert list(rx.storage) == [5]
    assert rx.duplicate_label == replayed.label()
