"""Invariant checks shown to fire.  Each case plants the smallest fault in
a small scenario and requires the `InvariantError` that names the check,
in process and as `slidenet run` exit 4.  A check that cannot fire looks
exactly like one that passes."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from slidenet import codec, engine
from slidenet.auth import AuthNode
from slidenet.cli import main
from slidenet.engine import Engine, Scenario, run_scenario
from slidenet.localize import Verdict
from slidenet.node import INTERNAL, NodeState
from slidenet.scenarios import attack_scenario
from slidenet.util import InvariantError

SRC = str(Path(__file__).resolve().parents[1] / "src")

# two messages, so the first transmission is one the empty-network
# advance could end early; a static schedule lets the quiet-round skip
# take the rounds after the network has drained
TWO_MESSAGES = dict(n=4, mode="slide", messages=2, schedule_kind="static",
                    seed=0)


def _scenario_file(tmp_path, scenario=None):
    path = tmp_path / "scenario.json"
    scenario = scenario or Scenario(**TWO_MESSAGES)
    path.write_text(json.dumps(scenario.to_dict()))
    return str(path)


def _run_exit4(tmp_path, capsys, scenario, message):
    """`slidenet run` of `scenario` exits 4 with exactly `message`."""
    assert main(["run", _scenario_file(tmp_path, scenario), "--out",
                 str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == f"invariant failure: {message}\n"


def _run_under_python_O(tmp_path, patch, scenario=None):
    """`slidenet run` under `python -O` after the statements `patch`:
    (exit code, stderr)."""
    code = (f"import sys\n{patch}\n"
            "from slidenet.cli import main\n"
            f"sys.exit(main(['run', {_scenario_file(tmp_path, scenario)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    return out.returncode, out.stderr


def _store_nothing(node, item):
    """`NodeState._receiver_take` that drops every packet: the network
    drains and the receiver never decodes."""


NOT_DELIVERED = ("transmission 1, global round 3072: message 1 not "
                 "delivered within its transmission")


@pytest.mark.parametrize("advance", ["on", "off"])
def test_undelivered_message_raises(monkeypatch, advance):
    monkeypatch.setattr(NodeState, "_receiver_take", _store_nothing)
    if advance == "off":
        monkeypatch.setattr(Engine, "_advance", lambda self: None)
    with pytest.raises(InvariantError) as exc:
        run_scenario(Scenario(**TWO_MESSAGES))
    assert str(exc.value) == NOT_DELIVERED


def test_undelivered_message_exit4(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(NodeState, "_receiver_take", _store_nothing)
    _run_exit4(tmp_path, capsys, None, NOT_DELIVERED)


def test_undelivered_message_exit4_under_python_O(tmp_path):
    """The check is a raise, not an assert, so it holds under -O too."""
    code, err = _run_under_python_O(
        tmp_path, "from slidenet.node import NodeState\n"
                  "NodeState._receiver_take = lambda node, item: None")
    assert code == 4, err
    assert err == f"invariant failure: {NOT_DELIVERED}\n"


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


_DECODE = codec.decode


def _flip_payload(fragments, params):
    """`codec.decode` whose message has its first payload byte flipped."""
    msg = _DECODE(fragments, params)
    return replace(msg, payload=bytes([msg.payload[0] ^ 1]) + msg.payload[1:])


def _next_index(fragments, params):
    """`codec.decode` whose message claims the next index."""
    msg = _DECODE(fragments, params)
    return replace(msg, index=msg.index + 1)


@pytest.mark.parametrize("decode,index", [(_flip_payload, 1),
                                          (_next_index, 2)],
                         ids=["payload", "index"])
def test_corrupted_output_raises(monkeypatch, tmp_path, capsys, decode,
                                 index):
    message = (f"transmission 1, global round 217: receiver output out of "
               f"order or corrupted at message {index}")
    monkeypatch.setattr(codec, "decode", decode)
    with pytest.raises(InvariantError) as exc:
        run_scenario(Scenario(**TWO_MESSAGES))
    assert str(exc.value) == message
    _run_exit4(tmp_path, capsys, None, message)


AUTH_STATIC = dict(n=4, mode="auth", messages=1, schedule_kind="static",
                   seed=0)
NO_THETA = ("transmission 1, global round 4096: transmission 1: "
            "end-of-transmission parcel never reached the sender")


def test_missing_end_of_transmission_parcel_raises(monkeypatch, tmp_path,
                                                   capsys):
    """The receiver never queues its end-of-transmission parcel."""
    monkeypatch.setattr(AuthNode, "queue_theta", lambda self, *args: None)
    with pytest.raises(InvariantError) as exc:
        run_scenario(Scenario(**AUTH_STATIC))
    assert str(exc.value) == NO_THETA
    _run_exit4(tmp_path, capsys, Scenario(**AUTH_STATIC), NO_THETA)


HONEST_ELIMINATED = ("transmission 2, global round 4108: honest node 1 "
                     "eliminated: planted")
PLANTED = Verdict(1, "F3-flow", "planted", 1)


def test_honest_node_eliminated_raises(monkeypatch, tmp_path, capsys):
    """Localization convicts honest node 1 instead of the deleter."""
    monkeypatch.setattr(engine, "run_localization",
                        lambda rs, ring: PLANTED)
    scenario = attack_scenario(4, {2: "deleter"})
    with pytest.raises(InvariantError) as exc:
        run_scenario(scenario)
    assert str(exc.value) == HONEST_ELIMINATED
    _run_exit4(tmp_path, capsys, scenario, HONEST_ELIMINATED)


def test_honest_node_eliminated_exit4_under_python_O(tmp_path):
    code, err = _run_under_python_O(
        tmp_path, "import slidenet.engine\n"
                  "from slidenet.localize import Verdict\n"
                  "slidenet.engine.run_localization = "
                  f"lambda rs, ring: {PLANTED!r}",
        attack_scenario(4, {2: "deleter"}))
    assert code == 4, err
    assert err == f"invariant failure: {HONEST_ELIMINATED}\n"


# -- the potential, conservation and balance checks --------------------------
#
# Each plant below faults `TWO_MESSAGES`, an honest slide run, so every
# check is on.  A plant acts once per install.

_STAGE2 = Engine._stage2


def _plant_gain_unreported(monkeypatch):
    """`_stage2` that reports no insertion gain in the first round after
    round 1 in which the sender inserted; round 1 has no earlier
    potential to rise from."""
    done = []

    def stage2(self):
        _STAGE2(self)
        if self._round_gain and self.g_round > 1 and not done:
            done.append(self.g_round)
            self._round_gain = 0
    monkeypatch.setattr(Engine, "_stage2", stage2)


# `Engine._potential` with its duplication term one above the bound
# 2n^3 - 8n^2 + 8n; as source, so that `python -O` can run it too
DUP_OVER_BOUND = """
from slidenet.engine import Engine
_potential = Engine._potential
def _over_bound(self, rows=None):
    nd, dup = _potential(self, rows)
    return nd, dup + 2 * self.n**3 - 8 * self.n**2 + 8 * self.n + 1
"""


def _plant_dup_over_bound(monkeypatch):
    space = {}
    exec(DUP_OVER_BOUND, space)
    monkeypatch.setattr(Engine, "_potential", space["_over_bound"])


_CHECK_ROUND = Engine._check_round


def _live_slots(engine):
    """(buffer, height, item) of every slot the conservation scan reads:
    each occupied slot of an internal node but a flagged one."""
    return [(buf, h, item) for node in engine.nodes.values()
            if node.role == INTERNAL for buf in node.all_buffers()
            for h, item in enumerate(buf.slots, 1)
            if item is not None and (buf.kind == "in" or h != buf.H_FP)]


def _plant_duplicate(monkeypatch):
    """Before the first conservation check that finds live packets in two
    internal buffers, overwrite one of them with a copy of the other:
    every height and occupied slot stays as it was."""
    done = []

    def check_round(self, rounds):
        if self.r_local % 8 == 0 and not done:
            slots = _live_slots(self)
            pairs = [(a, b) for a in slots for b in slots if a[0] is not b[0]]
            if pairs:
                (_, _, item), (buf, h, _) = pairs[0]
                buf.slots[h - 1] = item
                done.append(h)
        _CHECK_ROUND(self, rounds)
    monkeypatch.setattr(Engine, "_check_round", check_round)


def _plant_blocked(monkeypatch):
    """`_stage2` that marks every round of transmission 1 blocked (a
    slide round is never wasted)."""
    def stage2(self):
        _STAGE2(self)
        if self.T == 1:
            self._round_blocked = True
    monkeypatch.setattr(Engine, "_stage2", stage2)


_RESHUFFLE = NodeState.reshuffle


def _plant_extra_move(monkeypatch):
    """`NodeState.reshuffle` that, the first time it leaves an internal
    node's buffers all at one height above 0, moves one more packet from
    the first buffer to the second."""
    done = []

    def reshuffle(self):
        drop = _RESHUFFLE(self)
        bufs = self.all_buffers()
        heights = [b.H for b in bufs]
        if self.role == INTERNAL and not done \
                and max(heights) == min(heights) >= 1:
            done.append(self.node_id)
            item, _ = bufs[0].take_top()
            bufs[1].put_top(item)
        return drop
    monkeypatch.setattr(NodeState, "reshuffle", reshuffle)


PHI_DUP_OUTSIDE = ("transmission 1, global round 1: duplication potential "
                   "33 outside [0, 32]")
# check -> (plant, the exact message)
FAULTS = {
    "phi-nd-rise": (_plant_gain_unreported, (
        "transmission 1, global round 2: non-duplicated potential rose by "
        "2 with insertions only 0")),
    "phi-dup-outside-bound": (_plant_dup_over_bound, PHI_DUP_OUTSIDE),
    "duplicated-live-packets": (_plant_duplicate, (
        "transmission 1, global round 8: duplicated live packets: "
        "[(1, 6)]")),
    "drop-below-blocked": (_plant_blocked, (
        "transmission 1, global round 3072: transmission 1: potential "
        "drop 1689 below n*blocked = 12288")),
    "unbalanced-heights": (_plant_extra_move, (
        "transmission 1, global round 4: node 1: heights differ by more "
        "than one, or an incoming buffer tops an outgoing one: in 0=0, "
        "in 2=2, out 2=1, out 3=1")),
}


@pytest.mark.parametrize("check", sorted(FAULTS))
def test_planted_fault_raises(monkeypatch, tmp_path, capsys, check):
    plant, message = FAULTS[check]
    plant(monkeypatch)
    with pytest.raises(InvariantError) as exc:
        run_scenario(Scenario(**TWO_MESSAGES))
    assert str(exc.value) == message
    monkeypatch.undo()
    plant(monkeypatch)
    _run_exit4(tmp_path, capsys, None, message)


def test_duplication_potential_exit4_under_python_O(tmp_path):
    code, err = _run_under_python_O(
        tmp_path, DUP_OVER_BOUND + "Engine._potential = _over_bound")
    assert code == 4, err
    assert err == f"invariant failure: {PHI_DUP_OUTSIDE}\n"
