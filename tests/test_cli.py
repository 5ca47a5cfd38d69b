import json
import sys
import tracemalloc
from dataclasses import fields

import pytest

from slidenet import cli
from slidenet.adversary import Corruption
from slidenet.cli import main
from slidenet.engine import Engine, Scenario, run_scenario
from slidenet.node import NodeState
from slidenet.scenarios import ATTACKERS, FAMILIES
from test_golden import CLI_GOLDEN, SCENARIOS


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def honest_scenario(tmp_path):
    data = {
        "n": 4, "mode": "slide", "lam": "3/8", "messages": 1,
        "schedule": {"kind": "churn", "p": 0.2, "seed": 3},
        "seed": 1, "checks": "full",
    }
    return write(tmp_path / "honest.json", data)


@pytest.fixture
def corrupt_heights(monkeypatch):
    """Break the height bookkeeping after every re-shuffle, so a run fails
    its invariant checks in round 1."""
    reshuffle = NodeState.reshuffle

    def reshuffle_then_corrupt(node):
        drop = reshuffle(node)
        node.all_buffers()[0].H += 1
        return drop

    monkeypatch.setattr(NodeState, "reshuffle", reshuffle_then_corrupt)


def _malformed(tmp_path, bad):
    """A scenario file: the honest churn scenario updated with `bad`,
    written with no limit on the digits of an int, as `json.load` has."""
    data = {"n": 4, "mode": "slide", "lam": "3/8", "messages": 1,
            "schedule": {"kind": "churn", "p": 0.2, "seed": 3},
            "seed": 1, "checks": "full"}
    data.update(bad)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return write(tmp_path / "bad.json", data)
    finally:
        sys.set_int_max_str_digits(limit)


def _churn(**fields):
    return {"schedule": {"kind": "churn", "p": 0.2, "seed": 3, **fields}}


# malformed fields, each with the text its message names it by
NAMED_FIELD = {
    "seed": ({"seed": 1.5}, "seed 1.5"),
    "schedule-seed": (_churn(seed=True), "schedule seed True"),
    "churn-p": (_churn(p=True), "churn p"),
    "backbone-float": (_churn(backbone=[0, 1.0, 3]), "backbone [0, 1.0, 3]"),
    "backbone-node": (_churn(backbone=[0, 9, 3]), "backbone [0, 9, 3]"),
    "backbone-empty": (_churn(backbone=[]), "backbone []"),
    "corruption-params": ({"mode": "auth", "corruptions": [
        {"node": 2, "round": 1, "behavior": "deleter",
         "params": {"junk": 1}}]}, "params"),
    "script-round-int": ({"schedule": {"kind": "scripted",
                                       "script": [[[0, 1]], 5]}},
                         "schedule.script [[[0, 1]], 5]"),
    "script-int": ({"schedule": {"kind": "scripted", "script": 5}},
                   "schedule.script 5"),
    "corruptions-int": ({"corruptions": 5}, "corruptions 5"),
    "corruptions-entry-int": ({"corruptions": [5]}, "corruptions entry 5"),
    "churn-script": (_churn(script=5), "schedule.script 5"),
    "static-p": ({"schedule": {"kind": "static", "p": "x"}},
                 "static p must be a number in [0, 1], got 'x'"),
    "trace": ({"trace": "yes"}, "unknown scenario key(s): trace"),
    "fragment-bytes-huge": ({"fragment_bytes": 2**24},
                            "fragment_bytes 16777216"),
    "crypto-backend-list": ({"crypto_backend": []}, "crypto backend []"),
    "corruption-behavior-list": ({"mode": "auth", "corruptions": [
        {"node": 2, "round": 1, "behavior": []}]}, "behavior []"),
    "corruption-no-node": ({"mode": "auth", "corruptions": [
        {"round": 1, "behavior": "deleter"}]},
        "corruptions entry {'round': 1, 'behavior': 'deleter'} has no node"),
    "corruption-no-behavior": ({"mode": "auth", "corruptions": [
        {"node": 2, "round": 1}]},
        "corruptions entry {'node': 2, 'round': 1} has no behavior"),
}
# TestRun's malformed-file cases spread the entries above at their place
# and the entries below at their end, so every older case keeps its id
SPREAD_NAMED = len(NAMED_FIELD)
NAMED_FIELD.update({
    f"lam-exponent-{lam}": ({"lam": lam}, f"lam must be a fraction such as "
                                          f"3/8, got '{lam}'")
    for lam in ("1e-100000", "1e-10000000")})


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
        {"checks": "light"},
        {"lam": "abc"},
        {"sigma": "x/y"},
        {"schedule": []},
        {"mode": "auth",
         "corruptions": [{"node": 2, "behavior": "deleter", "rnd": 1}]},
        {"schedule": {"kind": "churn", "p": 1.5, "seed": 3}},
        {"schedule": {"kind": "churn", "p": -2, "seed": 3}},
        *({"mode": "auth", "corruptions": [
            {"node": 2, "round": bad_round, "behavior": "deleter"}]}
          for bad_round in ("x", None, 1000.5, 0)),
        *({"mode": mode, "crypto_backend": backend}
          for mode in ("slide", "auth") for backend in ("rsa", 5)),
        *({"fragment_bytes": size} for size in (2.0, 10**20)),
        *({"messages": count} for count in (1.5, True, -1)),
        {"max_transmissions": 1.5},
        *({"mode": "auth", "corruptions": [
            {"node": node, "round": 1, "behavior": "deleter"}]}
          for node in (2.0, True)),
        {"mode": "auth", "corruptions": [
            {"node": 2, "round": 1, "behavior": "deleter"},
            {"node": 2, "round": 5, "behavior": "ghost"}]},
        {"schedule": {"kind": "scripted", "script": [[[0, 1, 2]]]}},
        {"schedule": {"kind": "churn", "p": 0.2, "seed": 3, "repair": "no"}},
        *(bad for bad, _ in list(NAMED_FIELD.values())[:SPREAD_NAMED]),
        *(_churn(p=0.3, backbone=backbone)
          for backbone in ([0, 1, 0, 3], [0, 1, 2, 1, 3], [0, 3, 0, 3])),
        {"mode": "auth", **_churn(backbone=[0, 1, 3]),
         "corruptions": [{"node": 1, "round": 1, "behavior": "deleter"}]},
        {"mode": "auth", "corruptions": [
            {"node": 2, "round": 1, "behavior": "nonsense"}]},
        *({"schedule": {"kind": "scripted", "script": [[edge]]}}
          for edge in ([0, 4], [-1, 0], [2, 2])),
        *(bad for bad, _ in list(NAMED_FIELD.values())[SPREAD_NAMED:]),
        {"seed": 10**5000},
    ])
    def test_malformed_scenario_exit2(self, tmp_path, bad, capsys):
        assert main(["run", _malformed(tmp_path, bad)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("name", list(NAMED_FIELD))
    def test_malformed_scenario_names_field(self, tmp_path, name, capsys):
        bad, text = NAMED_FIELD[name]
        assert main(["run", _malformed(tmp_path, bad)]) == 2
        assert text in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--mode", "auth"]])
    def test_run_takes_seed_and_mode_from_the_file(self, honest_scenario,
                                                  flag):
        with pytest.raises(SystemExit) as exc:
            main(["run", honest_scenario] + flag)
        assert exc.value.code == 2

    def test_setup_bug_is_not_a_config_error(self, honest_scenario,
                                             monkeypatch):
        """Only ConfigError is exit 2: a KeyError from engine setup is a
        bug, and surfaces as one."""
        def broken(*args, **kwargs):
            raise KeyError("planted")

        monkeypatch.setattr(NodeState, "__init__", broken)
        with pytest.raises(KeyError, match="planted"):
            main(["run", honest_scenario])

    def test_missing_node_count_exit2(self, tmp_path):
        assert main(["run", write(tmp_path / "empty.json", {})]) == 2

    def test_corrupted_buffer_height_exit4(self, tmp_path, honest_scenario,
                                           corrupt_heights, capsys):
        assert main(["run", honest_scenario, "--out",
                     str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "invariant failure" in err
        assert "buffer of peer 1: height differs from occupancy" in err

    def test_failed_traced_run_leaves_no_trace(self, tmp_path,
                                               honest_scenario,
                                               corrupt_heights):
        # the lines written before the failure could pass `audit`
        out = tmp_path / "out"
        assert main(["run", honest_scenario, "--out", str(out),
                     "--trace"]) == 4
        assert list(tmp_path.rglob("trace.jsonl*")) == []

    @pytest.mark.parametrize("flags", [[], ["--trace"]])
    def test_unusable_out_exit2_before_run(self, tmp_path, honest_scenario,
                                           capsys, flags):
        blocker = tmp_path / "some_file"
        blocker.write_text("")
        assert main(["run", honest_scenario, "--out", str(blocker / "x")]
                    + flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error:")

    def test_file_trace_needs_trace_option(self, tmp_path, monkeypatch,
                                           honest_scenario, capsys):
        """Only --trace records a trace: a run without it keeps none in
        memory and writes none, and a file's "trace" key is refused."""
        engines = []

        class Recording(Engine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr(cli, "Engine", Recording)
        out = tmp_path / "out"
        assert main(["run", honest_scenario, "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["report.json"]
        assert [e.trace for e in engines] == [None]
        for trace in (True, False):
            assert main(["run", _malformed(tmp_path, {"trace": trace}),
                         "--out", str(tmp_path / "refused")]) == 2
            assert "unknown scenario key(s): trace" in capsys.readouterr().err
        assert len(engines) == 1 and not (tmp_path / "refused").exists()

    def test_summary_counts_classified_failures(self, tmp_path, capsys):
        """The golden deleter run ends f3, eliminated, ok: one failure
        against the paper's budgets, though `report.json` lists both
        transmissions that are not ok."""
        scenario = SCENARIOS["deleter-n4"]()
        path = write(tmp_path / "deleter.json", scenario.to_dict())
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "delivered 1/1 messages in 3 transmissions; 1 failed; "
            "1 eliminations\n")
        report = json.loads((out / "report.json").read_text())
        assert [t["result"] for t in report["transmissions"]] == [
            "f3", "eliminated", "ok"]
        assert report["failures"] == [1, 2]

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
        crypto_backend="ed25519", seed=11, checks="off")
    default = Scenario()
    assert [f.name for f in fields(Scenario)
            if getattr(sc, f.name) == getattr(default, f.name)] == []
    assert Scenario.from_dict(sc.to_dict()) == sc
    assert Scenario.from_dict(json.loads(json.dumps(sc.to_dict()))) == sc


class TestGen:
    def test_gen_writes_each_family_scenario(self, capsys):
        """The file `gen` prints is the family's scenario, checked."""
        for name, family in sorted(FAMILIES.items()):
            for index, scenario in enumerate(family(4)):
                assert main(["gen", "--family", name, "--n", "4",
                             "--index", str(index)]) == 0
                data = json.loads(capsys.readouterr().out)
                assert Scenario.from_dict(data).digest() \
                    == scenario.digest(), (name, index)

    @pytest.mark.parametrize("flags", [
        ["--family", "attack", "--index", "6"],
        ["--family", "honest", "--index", "-1"],
        *(["--family", name, "--n", n] for name in sorted(FAMILIES)
          for n in ("3", "17")),
    ])
    def test_gen_refused_exit2(self, flags, capsys):
        assert main(["gen", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("configuration error:")

    def test_gen_honest_validates(self, capsys):
        assert main(["gen", "--family", "honest", "--n", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 4 and data["mode"] == "slide"
        assert Scenario.from_dict(data).to_dict() == data

    def test_gen_churn_seed42(self, capsys):
        """gen's churn scenario at n=5, moved to seed 42, still checks."""
        assert main(["gen", "--family", "honest", "--n", "5",
                     "--index", "7"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schedule"]["kind"] == "churn"
        assert data["schedule"]["p"] == 0.3
        assert data["schedule"]["seed"] == 7
        data["schedule"]["seed"] = 42
        assert Scenario.from_dict(data).check().n == 5

    def test_gen_attack(self, capsys):
        index = ATTACKERS.index("deleter")
        assert main(["gen", "--family", "attack", "--n", "4",
                     "--index", str(index)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mode"] == "auth"
        assert data["corruptions"][0]["behavior"] == "deleter"

    @pytest.mark.parametrize("p", ["1.5", "-2"])
    def test_gen_churn_probability_outside_unit_interval_refused(
            self, tmp_path, p, capsys):
        """gen's churn scenario with p outside [0, 1] is refused by run,
        and run writes nothing."""
        assert main(["gen", "--family", "honest", "--n", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        data["schedule"]["p"] = json.loads(p)
        out = tmp_path / "out"
        assert main(["run", write(tmp_path / "sc.json", data),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.exists()


def _lower_internal_height(rows):
    for rec in rows:
        if rec["k"] != "nodes":
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


def _unbalance_internal_heights(rows):
    """Raise an internal node's tallest buffer by 2 in one `nodes`
    record."""
    for rec in rows:
        if rec["k"] == "nodes":
            max(rec["nodes"]["1"], key=lambda buf: buf[2])[2] += 2
            return True
    return False


def _accept_distant_flag(rows):
    """Give an internal out-buffer row an accepted flagged packet at
    height 100, a duplication potential of 100."""
    for rec in rows:
        if rec["k"] == "nodes":
            for buf in rec["nodes"]["1"]:
                if buf[0] == "out":
                    buf[3:] = [100, True]
                    return True
    return False


def _block_first_transmission(rows):
    """Mark every round of transmission 1 blocked and not wasted."""
    marked = False
    for rec in rows:
        if rec["k"] == "state" and rec["T"] == 1:
            rec["blocked"], rec["wasted"] = 1, 0
            marked = True
    return marked


def _raise_sender_height(rows):
    """Raise a sender buffer above 2n in the first `nodes` record, which
    leaves every potential as it was."""
    for rec in rows:
        if rec["k"] == "nodes":
            rec["nodes"]["0"][0][2] = 9
            return rec["id"] == 0
    return False


def _dangle_nid(rows):
    """Point the first state row at a `nodes` record the file lacks."""
    for rec in rows:
        if rec["k"] == "state":
            rec["nid"] = 10**6
            return True
    return False


# tamper -> (messages in the traced run, the audit finding it raises);
# transmission 1 runs all its 3072 rounds only when a second message
# follows it
TAMPERS = {
    _lower_internal_height: (1, "recorded potential"),
    _bump_recorded_potential: (1, "recorded potential"),
    _hide_insertion_gain: (1, "with insertions 0"),
    _unbalance_internal_heights: (1, "node 1 unbalanced heights"),
    _accept_distant_flag: (1, "duplication potential 100 outside [0, 32]"),
    _block_first_transmission: (
        2, "transmission 1: potential drop 3481 below n*blocked = 12288"),
    _raise_sender_height: (
        1, "audit: nodes 0: node 0 buffer height 9 outside [0, 8]\n"
           "audit failed with 1 finding(s)\n"),
    _dangle_nid: (
        1, "audit: round 1: nid 1000000 names no kept nodes record\n"
           "audit failed with 1 finding(s)\n"),
}


def _traced_rows(tmp_path, scenario):
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out), "--trace"]) == 0
    trace = out / "trace.jsonl"
    return trace, [json.loads(line) for line in trace.read_text().splitlines()]


class TestAudit:
    def test_not_a_trace(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("{}\n")
        assert main(["audit", str(path)]) == 2

    def test_empty_file_exit2(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["audit", str(path)]) == 2

    def test_headerless_trace_exit2(self, tmp_path, honest_scenario, capsys):
        trace, rows = _traced_rows(tmp_path, honest_scenario)
        trace.write_text("".join(json.dumps(rec) + "\n" for rec in rows[1:]))
        assert main(["audit", str(trace)]) == 2
        assert "not a trace file" in capsys.readouterr().err

    def test_malformed_line_mid_file_exit2(self, tmp_path, honest_scenario,
                                           capsys):
        trace, rows = _traced_rows(tmp_path, honest_scenario)
        lines = [json.dumps(rec) for rec in rows]
        lines.insert(len(lines) // 2, '{"k": "state", "g": ')
        trace.write_text("\n".join(lines) + "\n")
        assert main(["audit", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "audit:" not in err

    def test_header_not_an_object_exit2(self, tmp_path, capsys):
        path = tmp_path / "list.jsonl"
        path.write_text("[]\n")
        assert main(["audit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "audit:" not in err

    def test_record_without_kind_exit2(self, tmp_path, honest_scenario,
                                       capsys):
        trace, rows = _traced_rows(tmp_path, honest_scenario)
        lines = [json.dumps(rec) for rec in rows]
        lines.insert(1, '{"g": 1}')
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["audit", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "audit:" not in err

    @pytest.mark.parametrize("at, record", [
        pytest.param(0, '{"k": "run"}', id="bare-header"),
        pytest.param(0, '{"k": "run", "n": 4, "scenario": []}',
                     id="header-scenario-list"),
        pytest.param(1, '{"k": "state"}', id="bare-state-first"),
        pytest.param(-1, '{"k": "state"}', id="bare-state-last"),
        pytest.param(1, '{"k": "state", "g": 1, "r": 1, "gain": 0, '
                        '"nodes": []}', id="state-nodes-list"),
        pytest.param(1, '{"id": 0, "k": "nodes", "nodes": []}',
                     id="nodes-record-list"),
        pytest.param(1, '{"k": "nodes", "nodes": {}}',
                     id="nodes-record-no-id"),
    ])
    def test_record_without_fields_exit2(self, tmp_path, honest_scenario,
                                         capsys, at, record):
        # the header replaced, or a state row inserted after the header
        # or before the last line
        trace, rows = _traced_rows(tmp_path, honest_scenario)
        lines = [json.dumps(rec) for rec in rows]
        if at == 0:
            lines[0] = record
        else:
            lines.insert(at % len(lines), record)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["audit", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "audit:" not in err

    @pytest.mark.parametrize("scenario, row", [
        pytest.param({}, ["in", 0, "x", None, False], id="height-not-int"),
        pytest.param({}, ["out", 0, 2, "y", True], id="extra-not-int"),
        pytest.param({"corruptions": [5]}, ["in", 0, 0, None, False],
                     id="corruption-not-object"),
        pytest.param({"corruptions": [{"node": 2}]},
                     ["in", 0, 0, None, False], id="honest-with-corruption"),
    ])
    def test_malformed_field_contents_exit2(self, tmp_path, capsys,
                                            scenario, row):
        # the first `nodes` record has a finding (a height above 2n), so
        # an audit that printed its findings before stopping would show it
        header = {"k": "run", "n": 4, "honest": True, "scenario": scenario}
        tall = {"id": 0, "k": "nodes",
                "nodes": {"1": [["in", 0, 99, None, False]]}}
        state = {"k": "state", "g": 1, "T": 1, "r": 1, "gain": 0, "nd": 0,
                 "nid": 0}
        bad = {"id": 1, "k": "nodes", "nodes": {"1": [row]}}
        path = tmp_path / "malformed.jsonl"
        rows = (header, tall, state, bad, dict(state, g=2, nid=1))
        path.write_text("".join(json.dumps(rec) + "\n" for rec in rows))
        capsys.readouterr()
        assert main(["audit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "audit:" not in err

    def test_findings_past_20_counted_exactly(self, tmp_path,
                                              honest_scenario, capsys):
        trace, rows = _traced_rows(tmp_path, honest_scenario)
        states = [rec for rec in rows if rec["k"] == "state"]
        assert len(states) > 20
        for rec in states:
            rec["nd"] += 1
        trace.write_text("".join(json.dumps(rec) + "\n" for rec in rows))
        capsys.readouterr()
        assert main(["audit", str(trace)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 21
        assert all("recorded potential" in line for line in err[:20])
        assert err[20] == f"audit failed with {len(states)} finding(s)"

    def test_roundtrip(self, tmp_path, honest_scenario):
        out = tmp_path / "out"
        assert main(["run", honest_scenario, "--out", str(out),
                     "--trace"]) == 0
        assert main(["audit", str(out / "trace.jsonl")]) == 0

    @pytest.mark.parametrize("honest", [False, 1, None])
    def test_header_honest_not_its_scenarios_exit2(
            self, tmp_path, honest_scenario, capsys, honest):
        """A header whose `honest` is not true for a scenario without
        corruptions cannot switch the honest-only checks off: the audit
        refuses it before it prints the finding they make (`honest` None
        drops the flag)."""
        trace, rows = _traced_rows(tmp_path, honest_scenario)
        assert _hide_insertion_gain(rows)
        rows[0]["honest"] = honest
        if honest is None:
            del rows[0]["honest"]
        trace.write_text("".join(json.dumps(rec) + "\n" for rec in rows))
        code, _, err = _audit(capsys, trace)
        assert code == 2
        assert err.startswith("configuration error: run record whose")
        assert "audit:" not in err

    @pytest.mark.parametrize("tamper", list(TAMPERS))
    def test_tampered_trace_exit4(self, tmp_path, honest_scenario,
                                  capsys, tamper):
        messages, finding = TAMPERS[tamper]
        data = json.loads(open(honest_scenario).read())
        trace, rows = _traced_rows(tmp_path, write(
            tmp_path / "scenario.json", dict(data, messages=messages)))
        assert tamper(rows)
        trace.write_text("".join(json.dumps(rec) + "\n" for rec in rows))
        code, _, err = _audit(capsys, trace)
        assert code == 4
        assert finding in err


# -- the audit's `nodes` records ----------------------------------------------

def _audit(capsys, path):
    """(exit code, stdout, stderr) of `slidenet audit` on `path`."""
    capsys.readouterr()
    return (main(["audit", str(path)]), *capsys.readouterr())


def _resolved(lines):
    """The records of trace file `lines`, `nodes` records left out and
    each state row's `nid` replaced by the `nodes` it names, each as
    `json.dumps` gives it."""
    nodes, out = {}, []
    for rec in map(json.loads, lines):
        if rec["k"] == "nodes":
            nodes[rec["id"]] = rec["nodes"]
            continue
        if rec["k"] == "state":
            rec["nodes"] = nodes[rec.pop("nid")]
        out.append(json.dumps(rec, sort_keys=True))
    return out


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_audit_matches_whole_decode_golden(tmp_path, capsys, name):
    """The trace file of a golden run passes the audit, and holds the
    engine's in-memory trace once each `nid` is replaced by its `nodes`."""
    path = write(tmp_path / "scenario.json", SCENARIOS[name]().to_dict())
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), "--trace"]) == 0
    code, stdout, _ = _audit(capsys, out / "trace.jsonl")
    assert code == 0 and stdout.startswith("audit passed over")
    _, engine = run_scenario(SCENARIOS[name](), trace=[])
    lines = (out / "trace.jsonl").read_text().splitlines()
    assert _resolved(lines[1:]) == [json.dumps(rec, sort_keys=True)
                                    for rec in engine.trace]


_HEADER = {"k": "run", "n": 4, "honest": True, "scenario": {}}


def _passing_nodes(peer):
    """The `nodes` of a state row that passes the audit, with potential 0;
    it differs by `peer`, which the audit does not check."""
    return {"0": [["out", peer, 0, None, False]],
            "1": [["in", 0, 0, None, False]]}


def _row_naming(g, nid):
    """The line of a state row, with potential 0, that names `nodes`
    record `nid`."""
    row = dict(_state_row(g, None), nid=nid)
    del row["nodes"]
    return json.dumps(row)


def test_audit_nodes_texts_bounded(tmp_path, capsys):
    """After 640 `nodes` records, each named by one passing state row, the
    audit holds the potentials of the last NODES_KEPT of them, and of no
    earlier one, as the sink holds their objects."""
    kept = cli.NODES_KEPT
    assert 640 % kept == 0
    lines = [json.dumps(_HEADER)]
    for i in range(640):
        lines.append(json.dumps({"id": i, "k": "nodes",
                                 "nodes": _passing_nodes(i)}))
        lines.append(_row_naming(i + 1, i))
    path = tmp_path / "trace.jsonl"
    for nid, code in ((640 - kept, 0), (639 - kept, 4)):
        path.write_text("\n".join(lines + [_row_naming(641, nid)]) + "\n")
        assert _audit(capsys, path)[0] == code


def _run_and_audit_peak(tmp_path, messages):
    """tracemalloc peak of `slidenet run --trace` and `slidenet audit` on
    a slide n=4 churn scenario."""
    data = {"n": 4, "mode": "slide", "messages": messages,
            "schedule": {"kind": "churn", "p": 0.3, "seed": 2}, "seed": 2}
    path = write(tmp_path / f"m{messages}.json", data)
    out = tmp_path / f"m{messages}"
    tracemalloc.start()
    try:
        assert main(["run", path, "--out", str(out), "--trace"]) == 0
        assert main(["audit", str(out / "trace.jsonl")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.slow
def test_traced_run_and_audit_memory_constant(tmp_path):
    # 1 message takes 328 rounds, 3 messages 6,493; a run that keeps its
    # trace in memory until the end peaks at 27 MB on the longer one
    short = _run_and_audit_peak(tmp_path, 1)
    long = _run_and_audit_peak(tmp_path, 3)
    assert short < 12 * 2**20 and long < 12 * 2**20
    assert abs(long - short) < 2 * 2**20


# -- the trace file's `nodes` records ---------------------------------------

def _state_row(g, nodes, **extra):
    return {"k": "state", "g": g, "T": 1, "r": g, "gain": 0, "blocked": 0,
            "wasted": 0, "nd": 0, "nodes": nodes, **extra}


def _fresh_nodes(i):
    return {"1": [["out", 2, i % 7, None, False], ["in", 0, 0, i, False]]}


def _sink_lines(tmp_path, records):
    """Append each record `records` yields to a trace file, and return
    its lines, each record's `json.dumps` taken as it was appended, and
    the most `nodes` objects the sink held at once."""
    sink = cli._TraceFile(str(tmp_path / "trace.jsonl"))
    expected, most = [], 0
    for rec in records:
        expected.append(json.dumps(rec, sort_keys=True))
        sink.append(rec)
        most = max(most, len(sink._nodes))
    sink.commit()
    return (tmp_path / "trace.jsonl").read_text().splitlines(), expected, most


def _nodes_ids(lines):
    return [rec["id"] for rec in map(json.loads, lines)
            if rec["k"] == "nodes"]


def test_trace_file_encodes_shared_nodes_once(tmp_path):
    nodes = _fresh_nodes(3)

    def records():
        for g in range(1, 201):
            yield _state_row(g, nodes)
            yield {"k": "confirm", "T": 1, "r": g, "e": [0, 1], "h": 2}

    lines, expected, most = _sink_lines(tmp_path, records())
    assert _resolved(lines) == expected
    assert lines[0] == json.dumps({"id": 0, "k": "nodes", "nodes": nodes},
                                  sort_keys=True)
    assert _nodes_ids(lines) == [0]
    assert most == 1


def test_trace_file_nodes_ids_reused(tmp_path):
    """Each row's `nodes` is built and freed in turn, so a later one can
    take a freed one's id: the sink must write each one as a new record."""
    def records():
        for i in range(1000):
            yield _state_row(i, _fresh_nodes(i))

    lines, expected, most = _sink_lines(tmp_path, records())
    assert _resolved(lines) == expected
    assert _nodes_ids(lines) == list(range(1000))
    assert most <= cli.NODES_KEPT


def test_trace_file_nodes_texts_bounded(tmp_path):
    kept = [_fresh_nodes(i) for i in range(10_000)]
    lines, expected, most = _sink_lines(
        tmp_path, (_state_row(i, nodes) for i, nodes in enumerate(kept)))
    assert _resolved(lines) == expected
    assert _nodes_ids(lines) == list(range(10_000))
    assert most == cli.NODES_KEPT


def test_trace_file_rewrites_evicted_nodes(tmp_path, capsys):
    """A row whose `nodes` object the sink has evicted gets a fresh
    record under a new id, which the audit, having evicted the old one
    in step, reads, and the trace passes."""
    first, *rest = [_passing_nodes(peer) for peer in range(cli.NODES_KEPT)]

    def records():
        yield _HEADER
        for g, nodes in enumerate([first, *rest, _passing_nodes(-1), first],
                                  start=1):
            yield _state_row(g, nodes)

    lines, expected, _ = _sink_lines(tmp_path, records())
    assert _resolved(lines) == expected
    ids = _nodes_ids(lines)
    assert ids == list(range(cli.NODES_KEPT + 2))
    assert json.loads(lines[-1])["nid"] == ids[-1]
    assert json.loads(lines[-2])["nodes"] == first
    assert _audit(capsys, tmp_path / "trace.jsonl")[:2] == (
        0, f"audit passed over {cli.NODES_KEPT + 2} recorded rounds\n")
