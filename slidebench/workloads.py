"""The benchmark's workloads, built only from slidenet's public
`Scenario`/`Corruption` API.

Each workload maps a seed to one scenario file plus the commands a user
runs on it.  The seed goes to both `schedule_seed` (churn edges) and
`seed` (message payloads and signing keys), so one seed fixes every input.
"""

from __future__ import annotations


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


def _slide_churn(slidenet, n, messages, seed):
    return slidenet.Scenario(
        n=n, mode="slide", lam="3/8", messages=messages,
        schedule_kind="churn", schedule_p=0.3, schedule_seed=seed,
        seed=seed, checks="full")


def _auth_deleter(slidenet, n, seed):
    return slidenet.Scenario(
        n=n, mode="auth", messages=1, max_transmissions=10, checks="full",
        schedule_kind="scripted", schedule_script=line_script(n),
        schedule_seed=seed, backbone=[0, 1, n - 1],
        corruptions=[slidenet.Corruption(node=2, round_index=1,
                                         behavior="deleter")],
        seed=seed)


class Workload:
    """One named workload: how to build its scenario, whether the run
    records a trace and audits it, and what its report must show."""

    def __init__(self, name, why, build, trace=False, results=None,
                 eliminated=None, idle=(), pinned=None):
        self.name = name
        self.why = why
        self.build = build            # (slidenet module, seed) -> Scenario
        self.trace = trace            # run --trace, then audit the trace
        self.results = results        # expected transmission results
        self.eliminated = eliminated  # expected eliminated nodes
        self.idle = idle              # span prefixes this workload never calls
        self.pinned = pinned or {}    # per-layer counts that must read exactly

    def check_layers(self, calls, metrics):
        """Return the failed checks of one traced run: a span that should
        be busy but recorded no call, or a pinned count that moved."""
        errors = [f"traced span {span} recorded 0 calls"
                  for span, n in sorted(calls.items())
                  if n == 0 and not span.startswith(self.idle)]
        errors += [f"{name} = {metrics[name]}, pinned at {want}"
                   for name, want in self.pinned.items()
                   if metrics[name] != want]
        return errors

    def check_report(self, report):
        """Return the list of failed report checks (empty when correct)."""
        errors = []
        delivered = [d["message"] for d in report["delivered"]]
        wanted = list(range(1, report["messages_requested"] + 1))
        if delivered != wanted:
            errors.append(f"delivered {delivered}, requested {wanted}")
        if self.results is not None:
            got = [t["result"] for t in report["transmissions"]]
            if got != self.results:
                errors.append(f"transmission results {got}, "
                              f"expected {self.results}")
        if self.eliminated is not None:
            got = sorted(e["node"] for e in report["eliminations"])
            if got != self.eliminated:
                errors.append(f"eliminated {got}, expected {self.eliminated}")
        return errors


# Spans slide mode never enters: it signs nothing and localizes nothing.
SLIDE_IDLE = ("crypto.", "auth.", "localize.", "adversary.honest_path",
              "engine.ledger_pairing")

WORKLOADS = {w.name: w for w in [
    Workload(
        "slide-n8-codec",
        "slide n=8 (D=8192), churn p=0.3, 1 message: the only workload "
        "where codec time and its O(D^2) memory dominate",
        lambda slidenet, seed: _slide_churn(slidenet, 8, 1, seed),
        idle=SLIDE_IDLE + ("cli.audit",)),
    Workload(
        "slide-n5-traced",
        "slide n=5 (D=2000), churn p=0.3, 3 messages, run --trace then "
        "audit: loads routing, invariant checks and the cli trace/audit path",
        lambda slidenet, seed: _slide_churn(slidenet, 5, 3, seed),
        trace=True, idle=SLIDE_IDLE),
    Workload(
        "auth-n4-deleter",
        "auth n=4 thin line, node 2 deletes from round 1: signed ledgers, "
        "broadcast flood, one localization and one elimination",
        lambda slidenet, seed: _auth_deleter(slidenet, 4, seed),
        results=["f3", "eliminated", "ok"], eliminated=[2],
        idle=("cli.audit",), pinned={"localize.verdicts": 1}),
]}
