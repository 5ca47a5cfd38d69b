import json
from dataclasses import fields

import pytest

from slidenet.adversary import Corruption
from slidenet.cli import main
from slidenet.engine import Scenario
from slidenet.node import NodeState


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def honest_scenario(tmp_path):
    data = {
        "n": 4, "mode": "slide", "lam": "3/8", "messages": 1,
        "schedule": {"kind": "churn", "p": 0.2, "seed": 3},
        "seed": 1, "checks": "light",
    }
    return write(tmp_path / "honest.json", data)


class TestRun:
    def test_honest_run_exit0(self, tmp_path, honest_scenario):
        out = tmp_path / "out"
        assert main(["run", honest_scenario, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == []
        assert len(report["delivered"]) == 1

    def test_missing_file_exit2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_bad_lambda_exit2(self, tmp_path):
        path = write(tmp_path / "bad.json",
                     {"n": 4, "lam": "1/2", "messages": 1})
        assert main(["run", path]) == 2

    def test_conforming_violation_exit3(self, tmp_path):
        data = {
            "n": 4, "mode": "slide", "lam": "3/8", "messages": 1,
            "schedule": {"kind": "scripted", "script": [[[0, 1], [2, 3]]],
                         "repair": False},
            "checks": "off",
        }
        path = write(tmp_path / "cut.json", data)
        assert main(["run", path]) == 3

    @pytest.mark.parametrize("bad", [
        {"mesages": 3},
        {"schedule": {"kind": "churn", "p": 0.2, "sede": 9}},
        {"checks": "ful"},
        {"mode": "auth",
         "corruptions": [{"node": 2, "behavior": "deleter", "rnd": 1}]},
    ])
    def test_malformed_scenario_exit2(self, tmp_path, bad):
        data = {"n": 4, "mode": "slide", "lam": "3/8", "messages": 1,
                "schedule": {"kind": "churn", "p": 0.2, "seed": 3},
                "seed": 1, "checks": "light"}
        data.update(bad)
        assert main(["run", write(tmp_path / "bad.json", data)]) == 2

    def test_missing_node_count_exit2(self, tmp_path):
        assert main(["run", write(tmp_path / "empty.json", {})]) == 2

    def test_corrupted_buffer_height_exit4(self, tmp_path, honest_scenario,
                                           monkeypatch, capsys):
        reshuffle = NodeState.reshuffle

        def reshuffle_then_corrupt(node, record_move=None):
            drop = reshuffle(node, record_move)
            node.all_buffers()[0].H += 1
            return drop

        monkeypatch.setattr(NodeState, "reshuffle", reshuffle_then_corrupt)
        assert main(["run", honest_scenario, "--out",
                     str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "invariant failure" in err
        assert "buffer of peer 1: height differs from occupancy" in err

    def test_determinism_byte_identical(self, tmp_path, honest_scenario):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", honest_scenario, "--out", str(out),
                         "--trace"]) == 0
            outs.append(((out / "report.json").read_bytes(),
                         (out / "trace.jsonl").read_bytes()))
        assert outs[0] == outs[1]


def test_scenario_round_trip():
    sc = Scenario(
        n=5, mode="auth", lam="1/4", sigma="1/8", fragment_bytes=4,
        messages=3, max_transmissions=7, schedule_kind="scripted",
        schedule_p=0.5, schedule_seed=9, schedule_script=[[[0, 1], [1, 4]]],
        backbone=[0, 1, 4], schedule_repair=False,
        corruptions=[Corruption(node=2, round_index=5, behavior="replacer",
                                params={"pool": 1})],
        crypto_backend="ed25519", seed=11, checks="light", trace=True)
    default = Scenario()
    assert [f.name for f in fields(Scenario)
            if getattr(sc, f.name) == getattr(default, f.name)] == []
    assert Scenario.from_dict(sc.to_dict()) == sc
    assert Scenario.from_dict(json.loads(json.dumps(sc.to_dict()))) == sc


class TestGen:
    def test_gen_honest_validates(self, tmp_path):
        out = tmp_path / "sc.json"
        assert main(["gen", "honest", "--n", "4", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["n"] == 4 and data["mode"] == "slide"
        assert Scenario.from_dict(data).to_dict() == data

    def test_gen_churn_seed42(self, tmp_path):
        out = tmp_path / "sc.json"
        assert main(["gen", "churn", "--n", "5", "--p", "0.3",
                     "--seed", "42", "--out", str(out)]) == 0

    def test_gen_attack(self, tmp_path):
        out = tmp_path / "sc.json"
        assert main(["gen", "attack", "--behavior", "deleter",
                     "--n", "4", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["mode"] == "auth"
        assert data["corruptions"][0]["behavior"] == "deleter"

    def test_gen_corrupted_backbone_refused(self, tmp_path):
        code = main(["gen", "attack", "--behavior", "deleter", "--n", "4",
                     "--corrupt-node", "1", "--backbone", "0", "1", "3",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_gen_unknown_behavior_refused(self, tmp_path):
        assert main(["gen", "attack", "--behavior", "nonsense"]) == 2


def _lower_internal_height(rows):
    for rec in rows:
        if rec["k"] != "state":
            continue
        for node, bufs in rec["nodes"].items():
            if node not in ("0", "3"):
                for buf in bufs:
                    if buf[2] > 0:
                        buf[2] -= 1
                        return True
    return False


def _bump_recorded_potential(rows):
    for rec in rows:
        if rec["k"] == "state":
            rec["nd"] += 1
            return True
    return False


def _hide_insertion_gain(rows):
    for rec in rows:
        if rec["k"] == "state" and rec["gain"] > 0 and rec["r"] != 1:
            rec["gain"] = 0
            return True
    return False


class TestAudit:
    def test_not_a_trace(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("{}\n")
        assert main(["audit", str(path)]) == 2

    def test_roundtrip(self, tmp_path, honest_scenario):
        out = tmp_path / "out"
        assert main(["run", honest_scenario, "--out", str(out),
                     "--trace"]) == 0
        assert main(["audit", str(out / "trace.jsonl")]) == 0

    @pytest.mark.parametrize("tamper", [_lower_internal_height,
                                        _bump_recorded_potential,
                                        _hide_insertion_gain])
    def test_tampered_trace_exit4(self, tmp_path, honest_scenario, tamper):
        out = tmp_path / "out"
        assert main(["run", honest_scenario, "--out", str(out),
                     "--trace"]) == 0
        trace = out / "trace.jsonl"
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert tamper(rows)
        trace.write_text("".join(json.dumps(rec) + "\n" for rec in rows))
        assert main(["audit", str(trace)]) == 4
