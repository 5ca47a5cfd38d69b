"""`slidenet bounds`: each scenario family runs to the end within every
bound, a limit planted below its measured value exits 4, a run that
raises exits 4 with its scenario, and a configuration error exits 2.
Runs go through the session's run cache, so the scenarios the acceptance
suite already ran are not run again."""

import json

import pytest

from conftest import cached_run
from slidenet import cli
from slidenet.engine import Scenario
from slidenet.node import NodeState
from slidenet.scenarios import FAMILIES
from test_checks_fire import _store_nothing


@pytest.fixture
def cached(monkeypatch, run_cache):
    monkeypatch.setattr(cli, "run_scenario",
                        lambda sc: cached_run(run_cache, sc))


def bounds(family, n):
    return cli.main(["bounds", "--family", family, "--n", str(n)])


@pytest.mark.parametrize("family", [
    pytest.param(name, marks=[pytest.mark.slow] if name == "throughput"
                 else []) for name in sorted(FAMILIES)])
def test_bounds_family_within_limits(cached, family, capsys):
    assert bounds(family, 4) == 0
    out = capsys.readouterr().out
    assert "wasted rounds per transmission" in out and " > " not in out


def test_bounds_limit_exceeded_exits_4(cached, monkeypatch, capsys):
    # the attack family holds exactly D+3 = 1027 signatures on an edge
    name, measure = "signatures per edge", cli.measure

    def planted(report):
        table = measure(report)
        table[name] = (table[name][0] - 1, table[name][1])
        return table

    monkeypatch.setattr(cli, "measure", planted)
    assert bounds("attack", 4) == 4
    assert f"{name:<32}  1027 > 1026" in capsys.readouterr().out


def test_bounds_config_error_exits_2(cached, capsys):
    assert bounds("attack", 3) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bounds_n_the_codec_refuses_exits_2(cached, family, capsys):
    # n = 17 makes D = 6n^3/lam larger than the field
    assert bounds(family, 17) == 2
    assert "the field size" in capsys.readouterr().err


def test_bounds_run_that_raises_exits_4(monkeypatch, capsys):
    """A receiver that stores nothing fails the first honest run; the
    runner prints that run's scenario as a file `slidenet run` takes.  The
    run cache, which would return a clean run, is left out."""
    monkeypatch.setattr(NodeState, "_receiver_take", _store_nothing)
    assert bounds("honest", 4) == 4
    out, err = capsys.readouterr()
    assert err.startswith("invariant failure: ") and "not delivered" in err
    assert Scenario.from_dict(json.loads(out)).digest() \
        == FAMILIES["honest"](4)[0].digest()
