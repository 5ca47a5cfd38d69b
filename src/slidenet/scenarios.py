"""Scenario builders shared by the tests and the experiment scripts."""

from __future__ import annotations

from .adversary import Corruption
from .engine import Scenario


def line_script(n):
    """Edge list keeping a thin honest line 0-1-(n-1) while corrupt
    internals attract traffic: no direct sender-receiver edge."""
    edges = [(0, 1), (1, n - 1)]
    for mid in range(2, n - 1):
        edges += [(0, mid), (mid, n - 1), (1, mid)]
    for a in range(2, n - 1):
        for b in range(a + 1, n - 1):
            edges.append((a, b))
    return [sorted(set(edges))]


def attack_scenario(n, behaviors, messages=1, max_transmissions=None):
    """One scenario with the given {node: behavior} map over the thin-line
    topology; every corrupt node turns in round 1, and the honest backbone
    runs through node 1."""
    corruptions = [Corruption(node=node, round_index=1, behavior=name)
                   for node, name in sorted(behaviors.items())]
    if max_transmissions is None:
        max_transmissions = 8 + 2 * len(behaviors)
    return Scenario(
        n=n, mode="auth", messages=messages,
        max_transmissions=max_transmissions,
        schedule_kind="scripted", schedule_script=line_script(n),
        backbone=[0, 1, n - 1], corruptions=corruptions)
