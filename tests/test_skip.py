"""The engine's next-event advance against the round-by-round engine.

`Engine._advance` moves over two kinds of stretch: quiet rounds, which
repeat the round before, and the rounds of a slide network left empty
after its message is delivered.  Every golden scenario and every attack
scenario below runs twice: as shipped, and with `Engine._advance` patched
to do nothing, so that every round runs.  At the end of every stretch the
advancing run's whole state (`engine_snapshot`) must equal the other
run's after the same round, and the two runs' reports and traces must be
equal.
"""

import pytest

from conftest import engine_snapshot
from slidenet.adversary import Corruption
from slidenet.engine import Engine, Scenario, run_scenario
from slidenet.scenarios import ATTACKERS, attack_scenario, line_script
from test_acceptance import GHOST
from test_attacks import recovery_scenario
from test_golden import SCENARIOS as GOLDEN
from test_golden import THIN_LINE_N4


# every golden case is traced, so the n=4 attacks run here untraced, with
# the two test_attacks.py runs that no golden case covers
ATTACKS = {
    **{f"attack-{b}": (lambda b=b: attack_scenario(4, {2: b}))
       for b in ATTACKERS},
    "attack-recovery": recovery_scenario,
    "attack-ghost-n5": GHOST[5],
}


COMPLETE_N4 = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

# the stops the other scenarios never reach: a behaviour that turns in the
# middle of a quiet stretch, and a mask that holds for 700 rounds at a time
# and then changes, once with every node live and once with a silent ghost
# that every live node keeps sending the same parcel
EXTRA = {
    "late-deleter": lambda: Scenario(
        n=4, mode="auth", messages=1, schedule_kind="static",
        corruptions=[Corruption(node=2, round_index=1000,
                                behavior="deleter")],
        seed=0),
    "scripted-runs": lambda: Scenario(
        n=4, mode="auth", messages=1, schedule_kind="scripted",
        schedule_script=[COMPLETE_N4] * 700 + [THIN_LINE_N4[0]] * 700,
        backbone=[0, 1, 3], seed=0),
    "ghost-scripted-runs": lambda: Scenario(
        n=4, mode="auth", messages=1, schedule_kind="scripted",
        corruptions=[Corruption(node=2, round_index=1, behavior="ghost")],
        schedule_script=[COMPLETE_N4] * 700 + [THIN_LINE_N4[0]] * 700,
        backbone=[0, 1, 3], seed=0),
}


def _check_equivalent(monkeypatch, make, traced=False):
    """Run `make()` with and without the advance, each traced if `traced`,
    and compare them; returns how many rounds it advanced over, by kind of
    stretch."""
    at_end = {}
    advance = Engine._advance

    def recording_advance(self):
        kind = "empty" if self._network_empty() else "quiet"
        before = self.g_round
        advance(self)
        if self.g_round > before:
            at_end[self.g_round] = (kind, self.g_round - before,
                                    engine_snapshot(self))

    monkeypatch.setattr(Engine, "_advance", recording_advance)
    report, engine = run_scenario(make(), trace=[] if traced else None)
    monkeypatch.undo()

    seen = {}
    post_round = Engine._post_round

    def recording_post_round(self):
        post_round(self)
        if self.g_round in at_end:
            seen[self.g_round] = engine_snapshot(self)

    monkeypatch.setattr(Engine, "_advance", lambda self: None)
    monkeypatch.setattr(Engine, "_post_round", recording_post_round)
    ref_report, ref = run_scenario(make(), trace=[] if traced else None)
    monkeypatch.undo()

    assert sorted(seen) == sorted(at_end)
    for g, (_, _, snapshot) in sorted(at_end.items()):
        assert snapshot == seen[g], f"state differs after round {g}"
    assert report == ref_report
    assert engine.trace == ref.trace
    skipped = {"quiet": 0, "empty": 0}
    for kind, rounds, _ in at_end.values():
        skipped[kind] += rounds
    return skipped


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_skip_matches_every_round_golden(monkeypatch, name):
    skipped = _check_equivalent(monkeypatch, GOLDEN[name], traced=True)
    if name == "auth-n4-static":
        assert skipped["quiet"] > 3000
    # each traced slide run's first transmission ends in an empty network;
    # auth mode never advances over one
    assert (skipped["empty"] > 0) == name.startswith("slide")


@pytest.mark.parametrize("name", sorted(EXTRA))
def test_skip_matches_every_round_stops(monkeypatch, name):
    assert _check_equivalent(monkeypatch, EXTRA[name],
                             traced=True)["quiet"] > 0


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_skip_matches_every_round_attacks(monkeypatch, name):
    skipped = _check_equivalent(monkeypatch, ATTACKS[name])
    assert skipped["empty"] == 0
    if name == "attack-ghost-n5":
        # the parcel hop towards the silent ghost repeats every round, and
        # leaves the state as it found it
        assert skipped["quiet"] >= 27000


# -- empty-network stretches -------------------------------------------------

def benchmark_slide():
    """The scenario of the benchmark's traced slide workload at seed 0:
    n=5, churn p=0.3, 3 messages; run here untraced."""
    return Scenario(n=5, mode="slide", messages=3, schedule_kind="churn",
                    schedule_p=0.3, schedule_seed=0, seed=0)


def test_empty_stretch_untraced_matches_every_round(monkeypatch):
    """The golden slide runs are traced, so their advance sets the
    registers for every skipped round; an untraced one sets them once per
    stretch, for round L only."""
    assert _check_equivalent(monkeypatch, benchmark_slide)["empty"] > 0


def _rows_built_per_stretch(monkeypatch, scenario, trace):
    """Run `scenario`, tracing into `trace`, recording each empty
    stretch's skipped rounds, the number of distinct ghost patterns among
    them (which in-buffers of non-receiver nodes have their edge up), and
    the `_buffer_rows` calls its advance made outside the closing
    invariant checks."""
    stretches = []
    counting = []
    advance, check_round = Engine._advance, Engine._check_round
    buffer_rows = Engine._buffer_rows

    def recording_advance(self):
        r0, base = self.r_local, self.g_round - self.r_local
        empty = self._network_empty()
        counting[:] = [0]
        advance(self)
        built, counting[:] = counting[0], []
        if not empty:
            assert built == 0
            return
        ghosts = [buf for i, node in self.nodes.items() if i != self.R
                  for buf in node.in_buffers.values()]
        patterns = {tuple(self.schedule.active(base + r, buf.peer, buf.owner)
                          for buf in ghosts)
                    for r in range(r0 + 1, self.r_local)}
        stretches.append((self.r_local - r0 - 1, len(patterns), built))

    def quiet_check_round(self, rounds):
        was, counting[:] = list(counting), []
        check_round(self, rounds)
        counting[:] = was

    def counting_buffer_rows(self):
        if counting:
            counting[0] += 1
        return buffer_rows(self)

    monkeypatch.setattr(Engine, "_advance", recording_advance)
    monkeypatch.setattr(Engine, "_check_round", quiet_check_round)
    monkeypatch.setattr(Engine, "_buffer_rows", counting_buffer_rows)
    run_scenario(scenario, trace=trace)
    monkeypatch.undo()
    return stretches


def test_empty_stretch_builds_each_distinct_row_once(monkeypatch):
    """A traced empty stretch builds one row for each distinct pattern of
    ghost slots, not one for each round."""
    stretches = _rows_built_per_stretch(monkeypatch,
                                        GOLDEN["slide-n5-churn"](), [])
    assert stretches
    for rounds, patterns, built in stretches:
        assert built <= patterns < rounds
    assert sum(built for _, _, built in stretches) * 50 \
        < sum(rounds for rounds, _, _ in stretches)


def test_untraced_empty_stretch_builds_no_row(monkeypatch):
    stretches = _rows_built_per_stretch(monkeypatch,
                                        GOLDEN["slide-n5-churn"](), None)
    assert stretches
    assert all(built == 0 for _, _, built in stretches)


def _executed_rounds(monkeypatch, scenario):
    """Run `scenario`, counting the rounds whose stages ran:
    (report, engine, count)."""
    stage2 = Engine._stage2
    executed = []

    def counting_stage2(self):
        executed.append(self.g_round)
        stage2(self)

    monkeypatch.setattr(Engine, "_stage2", counting_stage2)
    report, engine = run_scenario(scenario)
    return report, engine, len(executed)


def test_benchmark_slide_runs_few_rounds(monkeypatch):
    """Only the rounds before each network empties run: at most 2,500 of
    the scenario's 12,526."""
    report, engine, executed = _executed_rounds(monkeypatch,
                                                benchmark_slide())
    assert [d["message"] for d in report["delivered"]] == [1, 2, 3]
    assert engine.g_round == 12526
    assert executed <= 2500


def test_benchmark_auth_runs_few_rounds(monkeypatch):
    """The benchmark's auth workload at seed 0 (thin line at n=4, node 2
    deleting from round 1) runs 1,585 of its 12,288 rounds: the rest are
    quiet.  At most 2,000 may run."""
    scenario = Scenario(
        n=4, mode="auth", messages=1, max_transmissions=10,
        schedule_kind="scripted", schedule_script=line_script(4),
        schedule_seed=0, backbone=[0, 1, 3],
        corruptions=[Corruption(node=2, round_index=1, behavior="deleter")],
        seed=0)
    report, engine, executed = _executed_rounds(monkeypatch, scenario)
    assert [t["result"] for t in report["transmissions"]] == [
        "f3", "eliminated", "ok"]
    assert engine.g_round == 12288
    assert executed <= 2000


class _Empty(Exception):
    pass


@pytest.fixture(scope="module")
def empty_engine():
    """The benchmark slide engine, stopped at its first empty network."""
    engine = Engine(benchmark_slide())
    advance = Engine._advance

    def stop(self):
        if self._network_empty():
            raise _Empty
        advance(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_advance", stop)
        with pytest.raises(_Empty):
            engine.run()
    return engine


def _buffers(engine, kind):
    return [b for node in engine.nodes.values() for b in node.all_buffers()
            if b.kind == kind]


# each case sets one field, on every buffer of a kind in turn
EMPTY_FIELDS = {
    **{f"out.{f}": ("out", f) for f in ("H", "H_FP", "sb", "d")},
    "in.H": ("in", "H"),
}


@pytest.mark.parametrize("field", sorted(EMPTY_FIELDS))
def test_network_empty_sees_field(empty_engine, field):
    assert empty_engine._network_empty()
    kind, attr = EMPTY_FIELDS[field]
    for buf in _buffers(empty_engine, kind):
        undo = _set(buf, attr, 1)
        try:
            assert not empty_engine._network_empty(), (buf.owner, buf.peer)
        finally:
            undo()
    assert empty_engine._network_empty()


def test_network_empty_sees_reservoir(empty_engine):
    sender = empty_engine.nodes[empty_engine.S]
    undo = _set(sender, "reservoir", [None])
    try:
        assert not empty_engine._network_empty()
    finally:
        undo()
    assert empty_engine._network_empty()


def test_quiet_stretch_stops_before_scheduled_events(monkeypatch):
    """An honest static run skips its post-delivery stretch in one step
    that ends just before the receiver's end-of-transmission parcel, then
    runs that round, and skips again short of round L."""
    engine = Engine(Scenario(n=4, mode="auth", messages=1))
    stretches = []
    advance = Engine._advance

    def recording_advance(self):
        before = self.r_local
        advance(self)
        if self.r_local > before:
            stretches.append((before, self.r_local))

    monkeypatch.setattr(Engine, "_advance", recording_advance)
    engine.run()
    theta_round = engine.L - engine.n + 1
    assert any(end == theta_round - 1 for _, end in stretches)
    assert all(end < engine.L for _, end in stretches)
    assert engine.transmissions[0]["theta_created"] == theta_round


# -- the predicate sees every field the next round reads ---------------------

class _Quiet(Exception):
    pass


@pytest.fixture(scope="module")
def quiet_engine():
    """The deleter-n4 golden engine, stopped at its first fixed point."""
    engine = Engine(GOLDEN["deleter-n4"]())
    fixed_point = Engine._fixed_point

    def stop(self):
        if fixed_point(self):
            raise _Quiet
        return False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_fixed_point", stop)
        with pytest.raises(_Quiet):
            engine.run()
    return engine


def _set(obj, attr, value):
    old = getattr(obj, attr)
    setattr(obj, attr, value)
    return lambda: setattr(obj, attr, old)


def _add(obj, attr, value):
    setattr(obj, attr, value)
    return lambda: delattr(obj, attr)


def _put(table, key, value):
    had, old = key in table, table.get(key)
    table[key] = value
    return lambda: table.__setitem__(key, old) if had else table.pop(key)


def _buffer(engine, kind):
    return next(b for node in engine.nodes.values()
                for b in node.all_buffers() if b.kind == kind)


def _first(table):
    return next(iter(table.values()))


NEW = object()
FIELDS = {
    **{f"out.{f}": (lambda f=f: lambda e: _set(_buffer(e, "out"), f, NEW))()
       for f in ("H", "H_FP", "FR", "RR", "H_IN", "sb", "d", "p_tilde",
                 "flag_accepted")},
    **{f"in.{f}": (lambda f=f: lambda e: _set(_buffer(e, "in"), f, NEW))()
       for f in ("H", "H_GP", "RR", "H_OUT", "sb_OUT")},
    "node.cursor": lambda e: _set(e.nodes[1], "_rr_donor", NEW),
    "node.reservoir": lambda e: _set(e.nodes[0], "reservoir",
                                     e.nodes[0].reservoir + [None]),
    "node.storage": lambda e: _put(e.nodes[e.R].storage, -1, None),
    "auth.bb": lambda e: _put(e.auth[1].bb, ("new",), [None, set()]),
    "auth.passed": lambda e: _set(e.auth[1], "bb", {
        key: [entry[0], entry[1] | {-1}]
        for key, entry in e.auth[1].bb.items()}),
    "auth.cbp_out": lambda e: _put(e.auth[1].cbp_out, 0, NEW),
    "auth.alpha_in": lambda e: _put(e.auth[1].alpha_in, 0, NEW),
    "auth.last_sent": lambda e: _put(e.auth[1].last_sent, 0, NEW),
    "auth.last_fresh": lambda e: _put(e.auth[1].last_fresh, 0, NEW),
    "auth.ledger": lambda e: _set(_first(e.auth[1].in_led).sig1, "value",
                                  NEW),
    "auth.sigp": lambda e: _put(_first(e.auth[1].in_led).sigp, NEW, None),
    "auth.sig_nn": lambda e: _set(e.auth[1], "sig_nn", NEW),
    "auth.sot": lambda e: _put(e.auth[1].sot, e.auth[1].current_T, None),
    "auth.bl": lambda e: _put(e.auth[1].bl, -1, 1),
    "auth.en": lambda e: _put(e.auth[1].en, -1, 1),
    "auth.claims": lambda e: _set(e.auth[1], "claims",
                                  e.auth[1].claims | {NEW}),
    "sender.theta": lambda e: _set(e.auth[e.S], "theta", NEW),
    "sender.reports": lambda e: _put(e.auth[e.S].reports, NEW, {1: None}),
    "sender.halted": lambda e: _set(e.auth[e.S], "halted", NEW),
    "behavior": lambda e: _add(e.corrupt_nodes[2][1], "retained", NEW),
}


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_round_state_sees_field(quiet_engine, field):
    base = quiet_engine._round_state()
    undo = FIELDS[field](quiet_engine)
    try:
        assert quiet_engine._round_state() != base
    finally:
        undo()
    assert quiet_engine._round_state() == base
