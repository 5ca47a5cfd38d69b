"""scripts/bounds.py: each scenario family runs to the end within every
bound, a limit planted below its measured value exits 4, a run that
raises exits 4 with its scenario, and a configuration error exits 2.
Runs go through the session's run cache, so the scenarios the acceptance
suite already ran are not run again."""

import json

import pytest

from conftest import SCRIPTS, cached_run, load_bounds
from slidenet.engine import Scenario
from slidenet.node import NodeState
from slidenet.scenarios import FAMILIES
from test_checks_fire import _store_nothing


def test_every_script_has_a_case():
    assert [p.name for p in SCRIPTS.glob("*.py")] == ["bounds.py"]


@pytest.fixture
def bounds(monkeypatch, run_cache):
    module = load_bounds()
    monkeypatch.setattr(module, "run_scenario",
                        lambda sc: cached_run(run_cache, sc))
    return module


@pytest.mark.parametrize("family", [
    pytest.param(name, marks=[pytest.mark.slow] if name == "throughput"
                 else []) for name in sorted(FAMILIES)])
def test_bounds_family_within_limits(bounds, family, capsys):
    assert bounds.main(["--family", family, "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "wasted rounds per transmission" in out and " > " not in out


def test_bounds_limit_exceeded_exits_4(bounds, monkeypatch, capsys):
    # the attack family holds exactly D+3 = 1027 signatures on an edge
    name, measure = "signatures per edge", bounds.measure

    def planted(report, eng):
        table = measure(report, eng)
        table[name] = (table[name][0] - 1, table[name][1])
        return table

    monkeypatch.setattr(bounds, "measure", planted)
    assert bounds.main(["--family", "attack", "--n", "4"]) == 4
    assert f"{name:<32}  1027 > 1026" in capsys.readouterr().out


def test_bounds_config_error_exits_2(bounds, capsys):
    assert bounds.main(["--family", "attack", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bounds_n_the_codec_refuses_exits_2(bounds, family, capsys):
    # n = 17 makes D = 6n^3/lam larger than the field
    assert bounds.main(["--family", family, "--n", "17"]) == 2
    assert "the field size" in capsys.readouterr().err


def test_bounds_run_that_raises_exits_4(monkeypatch, capsys):
    """A receiver that stores nothing fails the first honest run; the
    runner prints that run's scenario as a file `slidenet run` takes.  The
    module is loaded without the run cache, which would return a clean
    run."""
    monkeypatch.setattr(NodeState, "_receiver_take", _store_nothing)
    assert load_bounds().main(["--family", "honest", "--n", "4"]) == 4
    out, err = capsys.readouterr()
    assert err.startswith("invariant failure: ") and "not delivered" in err
    assert Scenario.from_dict(json.loads(out)).digest() \
        == FAMILIES["honest"](4)[0].digest()
