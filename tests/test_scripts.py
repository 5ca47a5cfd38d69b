"""scripts/bounds.py: each scenario family runs to the end within every
bound, a limit planted below its measured value exits 4, and a
configuration error exits 2.  Runs go through the session's run cache, so
the scenarios the acceptance suite already ran are not run again."""

import pytest

from conftest import SCRIPTS, cached_run, load_bounds
from slidenet.scenarios import FAMILIES


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
