"""Lazy, run-length edge schedules against the eager list they replace.

`eager_masks` is the schedule generator as it was when every schedule
held one mask per budgeted round, drawn before round 1.  The schedules
`generate_schedule` builds now keep runs of equal masks and draw churn
masks only as far as a question asks; for every budgeted round their
`mask(r)` and `next_change(r)` must equal what that list gives.  The
conformance check must name the same first failing round as a search of
every round of the list.
"""

import random
import tracemalloc

import pytest

import slidenet.adversary as adversary
import slidenet.engine as engine_module
from slidenet.adversary import (Corruption, EdgeSchedule, default_backbone,
                                find_honest_path, generate_schedule,
                                validate_conforming)
from slidenet.engine import Engine, Scenario
from test_golden import SCENARIOS as GOLDEN
from test_golden import THIN_LINE_N4
from test_skip import COMPLETE_N4


def eager_masks(kind, n, rounds, seed=0, p=0.0, backbone=None,
                corrupt_nodes=(), script=None, repair=True):
    """One mask per round for all `rounds`, drawn up front."""
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    bit = {e: i for i, e in enumerate(edges)}

    def key(a, b):
        return (a, b) if a < b else (b, a)

    if backbone is None:
        backbone = default_backbone(n, set(corrupt_nodes))
    forced = 0
    if repair:
        for a, b in zip(backbone, backbone[1:]):
            forced |= 1 << bit[key(a, b)]
    full = (1 << len(edges)) - 1
    masks = []
    if kind == "static":
        masks = [full] * rounds
    elif kind == "churn":
        rng = random.Random(f"churn:{seed}:{n}")
        state = full
        for _ in range(rounds):
            flip = 0
            for i in range(len(edges)):
                if rng.random() < p:
                    flip |= 1 << i
            state ^= flip
            masks.append(state | forced)
    else:
        pattern = []
        for edge_list in script:
            m = 0
            for a, b in edge_list:
                m |= 1 << bit[key(a, b)]
            pattern.append(m | forced)
        masks = [pattern[i % len(pattern)] for i in range(rounds)]
    return masks


def eager_next_change(masks):
    """next_change(r) for every round r, worked out backwards."""
    out = [0] * len(masks)
    nxt = len(masks) + 1
    for i in range(len(masks) - 1, -1, -1):
        if i + 1 < len(masks) and masks[i + 1] != masks[i]:
            nxt = i + 2
        out[i] = nxt
    return out


def assert_same(sched, masks):
    assert sched.rounds == len(masks)
    rounds = range(1, len(masks) + 1)
    assert [sched.mask(r) for r in rounds] == masks
    assert [sched.next_change(r) for r in rounds] == eager_next_change(masks)


CHURN = [(n, p, seed) for n in (4, 5, 8) for p in (0.0, 0.3, 0.4)
         for seed in (0, 1, 7)]


@pytest.mark.parametrize("n, p, seed", CHURN)
def test_churn_masks_identical(n, p, seed):
    args = ("churn", n, 400)
    kwargs = dict(seed=seed, p=p)
    assert_same(generate_schedule(*args, **kwargs),
                eager_masks(*args, **kwargs))


@pytest.mark.parametrize("repair", [True, False])
def test_churn_masks_identical_in_any_order(repair):
    """Questions about late rounds first, then earlier ones: a lazy
    schedule draws up to the latest round asked about and keeps what it
    drew."""
    args = ("churn", 5, 300)
    kwargs = dict(seed=3, p=0.3, repair=repair, backbone=[0, 2, 4])
    masks = eager_masks(*args, **kwargs)
    sched = generate_schedule(*args, **kwargs)
    changes = eager_next_change(masks)
    for r in (150, 300, 1, 299, 151):
        assert sched.next_change(r) == changes[r - 1]
    assert [sched.mask(r) for r in range(300, 0, -1)] == masks[::-1]


# patterns whose runs cross the end of the pattern: one mask, two runs,
# and a first run that continues the last one
SCRIPTS = {
    "one-pattern": (4, [THIN_LINE_N4[0]], [0, 1, 3]),
    "scripted-runs": (4, [COMPLETE_N4] * 700 + [THIN_LINE_N4[0]] * 700,
                      [0, 1, 3]),
    "wrapping-run": (5, [[(0, 1)], [(1, 2)], [(1, 2)], [(0, 1)]],
                     [0, 1, 4]),
    "alternating": (4, [[(0, 2)], [(2, 3)]], [0, 1, 3]),
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
@pytest.mark.parametrize("rounds", [3, 1400, 4097])
def test_scripted_masks_identical(name, rounds):
    n, script, backbone = SCRIPTS[name]
    args = ("scripted", n, rounds)
    kwargs = dict(script=script, backbone=backbone)
    assert_same(generate_schedule(*args, **kwargs),
                eager_masks(*args, **kwargs))


@pytest.mark.parametrize("n", [4, 5, 8])
def test_static_masks_identical(n):
    assert_same(generate_schedule("static", n, 300),
                eager_masks("static", n, 300))


def test_explicit_list_schedule():
    masks = eager_masks("churn", 4, 200, seed=5, p=0.4)
    assert_same(EdgeSchedule(4, masks), masks)
    assert_same(EdgeSchedule(4, masks[:7], 200), [masks[i % 7]
                                                  for i in range(200)])
    # an iterator without `rounds` is read into a list, as a list is
    assert_same(EdgeSchedule(4, iter(masks)), masks)
    # with `rounds` it is drawn as asked, and running out is an error
    sched = EdgeSchedule(4, iter(masks), 300)
    assert sched.mask(200) == masks[-1]
    with pytest.raises(adversary.ConfigError, match="ran out"):
        sched.mask(201)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_schedules_identical(name):
    """Every golden scenario's schedule, over the engine's whole budget."""
    sc = GOLDEN[name]()
    engine = Engine(sc)
    masks = eager_masks(
        sc.schedule_kind, sc.n, engine.max_transmissions * engine.L,
        seed=sc.schedule_seed, p=sc.schedule_p, backbone=sc.backbone,
        corrupt_nodes=set(engine.corrupt_nodes), script=sc.schedule_script,
        repair=sc.schedule_repair)
    assert_same(engine.schedule, masks)


# -- conformance -------------------------------------------------------------

def first_violation(masks, n, corrupt):
    """The first round of `masks` without an honest path, searching every
    round."""
    sched = EdgeSchedule(n, masks)
    for r in range(1, len(masks) + 1):
        if find_honest_path(sched, r, corrupt, 0, n - 1) is None:
            return r
    return None


# unrepaired churn over 30 rounds: some schedules conform, the others
# first fail in rounds from 1 to 29; every mask is drawn and checked
UNREPAIRED = [(n, p, corrupt, seed) for n in (4, 5) for p in (0.05, 0.4)
              for corrupt in ((), (1,)) for seed in range(3)]


def _unrepaired(n, p, seed):
    return ("churn", n, 30), dict(seed=seed, p=p, repair=False)


@pytest.mark.parametrize("n, p, corrupt, seed", UNREPAIRED)
def test_unrepaired_churn_first_violation(n, p, corrupt, seed):
    args, kwargs = _unrepaired(n, p, seed)
    want = first_violation(eager_masks(*args, **kwargs), n, set(corrupt))
    got = validate_conforming(generate_schedule(*args, **kwargs),
                              set(corrupt), 0, n - 1)
    assert got == want


def test_unrepaired_churn_cases_differ():
    found = {first_violation(eager_masks(*args, **kwargs), n, set(corrupt))
             for n, p, corrupt, seed in UNREPAIRED
             for args, kwargs in [_unrepaired(n, p, seed)]}
    assert None in found and max(r for r in found if r) > 20


def _count_searches(monkeypatch):
    calls = []
    search = adversary.find_honest_path

    def counting(schedule, r, *args):
        calls.append(r)
        return search(schedule, r, *args)

    monkeypatch.setattr(adversary, "find_honest_path", counting)
    return calls


def test_forced_honest_backbone_proves_every_round(monkeypatch):
    calls = _count_searches(monkeypatch)
    sched = generate_schedule("churn", 8, 10**9, p=0.3, corrupt_nodes={2})
    assert validate_conforming(sched, {2}, 0, 7) is None
    assert calls == [1]


def test_search_once_per_distinct_mask(monkeypatch):
    # the backbone 0-1-3 is forced, but node 1 is corrupt: every distinct
    # mask is searched once, at its first round
    calls = _count_searches(monkeypatch)
    sched = generate_schedule("scripted", 4, 4096,
                              script=[COMPLETE_N4] * 3 + [THIN_LINE_N4[0]],
                              backbone=[0, 1, 3])
    assert validate_conforming(sched, {1}, 0, 3) is None
    assert calls == [1, 4]


# -- the benchmark's spans -----------------------------------------------------

def test_schedule_spans_called(monkeypatch):
    """The benchmark's traced run fails on a span with no call.  The
    schedule spans wrap these names in `slidenet.engine`; Engine.__init__
    and a short deleter-n4 run must call each of them."""
    calls = {}
    for name in ("generate_schedule", "validate_conforming",
                 "find_honest_path"):
        calls[name] = 0
        inner = getattr(engine_module, name)

        def counting(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(engine_module, name, counting)
    sc = GOLDEN["deleter-n4"]()
    sc.max_transmissions = 1
    Engine(sc).run()
    assert min(calls.values()) >= 1, calls


@pytest.mark.slow
def test_n8_churn_deleter_init_memory():
    """Setup grows with the rounds run, not the budget: auth n=8 churn
    with a deleter budgets 65 transmissions of 32,768 rounds."""
    sc = Scenario(n=8, mode="auth", messages=1, schedule_kind="churn",
                  schedule_p=0.3, seed=0,
                  corruptions=[Corruption(2, 1, "deleter")])
    tracemalloc.start()
    try:
        engine = Engine(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert engine.max_transmissions * engine.L == 2_129_920
    assert peak < 10 * 2**20
