"""Invariant checks shown to fire.  Each case plants the smallest fault in
a small scenario and requires the `InvariantError` that names the check,
in process and as `slidenet run` exit 4.  A check that cannot fire looks
exactly like one that passes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slidenet import codec
from slidenet.cli import main
from slidenet.engine import Engine, Scenario, run_scenario
from slidenet.node import NodeState
from slidenet.util import InvariantError

SRC = str(Path(__file__).resolve().parents[1] / "src")

# two messages, so the first transmission is one the empty-network
# advance could end early; a static schedule lets the quiet-round skip
# take the rounds after the network has drained
TWO_MESSAGES = dict(n=4, mode="slide", messages=2, schedule_kind="static",
                    seed=0)


def _scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(Scenario(**TWO_MESSAGES).to_dict()))
    return str(path)


def _store_nothing(node, item):
    """`NodeState._receiver_take` that drops every packet: the network
    drains and the receiver never decodes."""


NOT_DELIVERED = ("transmission 1, global round 3072: message 1 not "
                 "delivered within its transmission")


@pytest.mark.parametrize("advance", ["on", "off"])
def test_undelivered_message_raises(monkeypatch, advance):
    monkeypatch.setattr(NodeState, "_receiver_take", _store_nothing)
    if advance == "off":
        monkeypatch.setattr(Engine, "_network_empty", lambda self: False)
    with pytest.raises(InvariantError) as exc:
        run_scenario(Scenario(**TWO_MESSAGES))
    assert str(exc.value) == NOT_DELIVERED


def test_undelivered_message_exit4(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(NodeState, "_receiver_take", _store_nothing)
    assert main(["run", _scenario_file(tmp_path), "--out",
                 str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == f"invariant failure: {NOT_DELIVERED}\n"


def test_undelivered_message_exit4_under_python_O(tmp_path):
    """The check is a raise, not an assert, so it holds under -O too."""
    code = ("import sys\n"
            "from slidenet.cli import main\n"
            "from slidenet.node import NodeState\n"
            "NodeState._receiver_take = lambda node, item: None\n"
            f"sys.exit(main(['run', {_scenario_file(tmp_path)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 4, out.stderr
    assert out.stderr == f"invariant failure: {NOT_DELIVERED}\n"


def test_decoding_failure_raises(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(codec, "decode", lambda fragments, params: None)
    with pytest.raises(InvariantError,
                       match=r"^transmission 1, global round \d+: receiver "
                             r"3: decoding failed with \d+ distinct "
                             r"fragments$"):
        run_scenario(Scenario(**TWO_MESSAGES))
    assert main(["run", _scenario_file(tmp_path), "--out",
                 str(tmp_path / "out")]) == 4
    assert "receiver 3: decoding failed" in capsys.readouterr().err
