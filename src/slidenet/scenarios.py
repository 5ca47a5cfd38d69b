"""The scenario families that the tests and `slidenet bounds` share:
each maps a node count n to the scenarios that check the paper's bounds at
that n, with the seeds and churn rates the acceptance suite checks."""

from __future__ import annotations

from .adversary import BEHAVIORS, Corruption
from .engine import Scenario

ATTACKERS = [name for name in BEHAVIORS if name != "honest"]


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


def honest_churn(n, seed):
    """One message routed by plain Slide under churn p=0.3 at `seed`."""
    return Scenario(n=n, mode="slide", messages=1, schedule_kind="churn",
                    schedule_p=0.3, schedule_seed=seed, seed=seed)


def throughput_mix(n):
    """x = n^2 + 10 auth transmissions over churn p=0.15 at seed 5, with a
    deleter at node 1 from round 1 and a duplicator at node 2 from round
    3L, the end of transmission 3: the paper's throughput setting, in
    which at least x - n^2 messages arrive."""
    x = n * n + 10
    length = 4 * Scenario(n=n).check().packets_per_codeword
    return Scenario(
        n=n, mode="auth", messages=x, max_transmissions=x,
        schedule_kind="churn", schedule_p=0.15, schedule_seed=5,
        backbone=[0, n - 1],
        corruptions=[Corruption(1, 1, "deleter"),
                     Corruption(2, 3 * length, "duplicator")])


FAMILIES = {
    "honest": lambda n: [honest_churn(n, seed) for seed in range(20)],
    "attack": lambda n: [attack_scenario(n, {2: name})
                         for name in ATTACKERS],
    "throughput": lambda n: [throughput_mix(n)],
}
