"""Smoke test for scripts/: each script's main() runs to the end at its
smallest arguments, so a change to the scenario API the scripts build on
cannot break one of them unnoticed."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# script -> (smallest arguments, a line its output must contain)
CASES = {
    "honest_sweep.py": (["--n", "4", "--seeds", "1"], "median delivery"),
    "attack_suite.py": (["--n", "4"], "=== report-forger (n=4"),
    "throughput_experiment.py": (["--n", "4"], "delivered"),
}
SLOW = {"throughput_experiment.py"}     # ~10 s: 26 auth transmissions


def test_every_script_has_a_case():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(CASES)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=[pytest.mark.slow] if name in SLOW else [])
    for name in sorted(CASES)])
def test_script_main_runs(name, monkeypatch, capsys):
    argv, expect = CASES[name]
    spec = importlib.util.spec_from_file_location(name[:-3], SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name] + argv)
    module.main()
    assert expect in capsys.readouterr().out
