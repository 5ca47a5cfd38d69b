"""End-to-end adversarial scenarios at n=4: each scripted behavior must
produce classified failures, a correct elimination within the failure
budget, and no honest casualties (the engine raises on those)."""

from dataclasses import replace

import pytest

from conftest import cached_run
from slidenet.adversary import Corruption
from slidenet.bounds import FAILED_RESULTS
from slidenet.engine import run_scenario
from slidenet.scenarios import attack_scenario
from test_acceptance import GHOST

pytestmark = pytest.mark.slow


def recovery_scenario():
    return attack_scenario(4, {2: "deleter"}, messages=2,
                           max_transmissions=12)


def failures_before_elimination(report):
    """Failed transmissions between the first failure and each
    elimination, inclusive."""
    fail_ts = [t["T"] for t in report["transmissions"]
               if t["result"] in FAILED_RESULTS]
    spans = []
    for e in report["eliminations"]:
        spans.append(len([T for T in fail_ts if T <= e["T"]]))
    return spans


class TestSingleAttacker:
    @pytest.mark.parametrize("behavior,expected_kinds", [
        ("deleter", {"F3-flow"}),
        ("liar", {"F3-flow"}),
        ("duplicator", {"F4-duplication", "F2-potential"}),
        ("replacer", {"F4-duplication"}),
        ("report-forger", {"pairwise-inconsistency", "malformed-report"}),
    ])
    def test_attacker_eliminated(self, behavior, expected_kinds, run_cache):
        report, eng = cached_run(run_cache, attack_scenario(4, {2: behavior}))
        results = [t["result"] for t in report["transmissions"]]
        assert len(report["delivered"]) == 1, results
        # every failed transmission carries exactly one recognized reason
        for t in report["transmissions"]:
            assert t["result"] in ("ok", "f2", "f3", "f4", "eliminated")
        elim = report["eliminations"]
        assert [e["node"] for e in elim] == [2]
        assert elim[0]["kind"] in expected_kinds
        assert all(span <= 4 for span in failures_before_elimination(report))

    def test_recovery_after_elimination(self, run_cache):
        report, eng = cached_run(run_cache, recovery_scenario())
        assert [d["message"] for d in report["delivered"]] == [1, 2]
        results = [t["result"] for t in report["transmissions"]]
        assert results.count("ok") >= 2


def test_replayed_codeword_run_completes():
    """A replacer that turns in round 306 replays codeword-1 packets in
    transmission 2, which fails f4: the receiver's duplicate label is a
    replayed packet's, and localization convicts the replacer."""
    scenario = replace(attack_scenario(4, {2: "replacer"}, messages=2),
                       corruptions=[Corruption(2, 306, "replacer")])
    report, _ = run_scenario(scenario)
    assert [t["result"] for t in report["transmissions"]] == \
        ["ok", "f4", "eliminated", "ok"]
    assert [e["node"] for e in report["eliminations"]] == [2]
    assert [d["message"] for d in report["delivered"]] == [1, 2]


@pytest.fixture(scope="module")
def ghost_outcome(run_cache):
    return cached_run(run_cache, GHOST[5]())


class TestGhost:
    def test_ghost_neutralized_not_eliminated(self, ghost_outcome):
        report, eng = ghost_outcome
        assert len(report["delivered"]) == 1
        # the deleter is identified; the ghost is only ever blacklisted
        assert [e["node"] for e in report["eliminations"]] == [2]
        blacklisted = set()
        for t in report["transmissions"]:
            blacklisted.update(t.get("blacklist_before", []))
        assert 3 in blacklisted
        assert 3 not in eng.auth[0].en

    def test_failed_transmissions_classified(self, ghost_outcome):
        report, _ = ghost_outcome
        for t in report["transmissions"]:
            if t["result"] not in ("ok", "eliminated"):
                assert t["result"] in ("f2", "f3", "f4")


class TestAdversarialTrace:
    def test_trace_audit_passes_for_honest_nodes(self, tmp_path):
        import json
        from slidenet.cli import main
        sc = attack_scenario(4, {2: "deleter"})
        path = tmp_path / "attack.json"
        path.write_text(json.dumps(sc.to_dict()))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--trace"]) == 0
        assert main(["audit", str(out / "trace.jsonl")]) == 0
