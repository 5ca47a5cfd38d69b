"""The paper's bounds: the limits a finished run's report is measured
against, and the per-round potential rules that the engine asserts as a
run goes and `slidenet audit` replays from its trace.  Each rule returns
its finding, or None when it holds."""

# the transmission results that count against the paper's failure budgets
# (n per elimination, n^2 in all); a transmission that ends in an
# elimination is not one of them
FAILED_RESULTS = ("f2", "f3", "f4")


def rise_finding(rise, gain):
    """A round raises the non-duplicated potential by at most its
    insertion gain."""
    if rise > gain:
        return (f"non-duplicated potential rose by {rise} with insertions "
                f"only {gain}")
    return None


def dup_finding(phi_dup, n):
    """The duplication potential stays in [0, 2n^3 - 8n^2 + 8n]."""
    bound = 2 * n**3 - 8 * n**2 + 8 * n
    if not 0 <= phi_dup <= bound:
        return f"duplication potential {phi_dup} outside [0, {bound}]"
    return None


def drop_finding(T, drop, n, blocked):
    """Over transmission T the potential drops by at least n per blocked
    round that wasted nothing."""
    if drop < n * blocked:
        return (f"transmission {T}: potential drop {drop} below "
                f"n*blocked = {n * blocked}")
    return None


def measure(report):
    """bound -> (its limit, the values one run measures), with the
    formulas tests/test_acceptance.py asserts."""
    params, ts = report["params"], report["transmissions"]
    n, D, L = params["n"], params["D"], params["transmission_rounds"]
    failed = [t["T"] for t in ts if t["result"] in FAILED_RESULTS]
    memory = report.get("memory", {})
    slide = params["mode"] == "slide"
    return {
        "delivery round (slide)": (3 * D, [
            d["round"] - (d["T"] - 1) * L
            for d in report["delivered"] if slide]),
        "packets per internal node": (4 * n * (n - 2), [
            report["max_packets_per_node"][str(node)]
            for node in range(1, n - 1)]),
        "wasted rounds per transmission": (4 * n**3,
                                           [t["wasted"] for t in ts]),
        # an end-of-transmission parcel that never arrived is unbounded
        "end-of-transmission latency": (n, [
            float("inf") if t["theta_arrival"] is None
            else t["theta_arrival"] - t["theta_created"] for t in ts
            if t["theta_created"] is not None
            and t["result"] != "eliminated"]),
        "failures up to an elimination": (n, [
            len([T for T in failed if T <= e["T"]])
            for e in report["eliminations"]]),
        "failures in total": (n * n, [len(failed)]),
        "undelivered transmissions": (n * n,
                                      [len(ts) - len(report["delivered"])]),
        "signatures per edge": (D + 3, [
            m["sig_entries_per_edge"] for m in memory.values()]),
        "broadcast buffer": (n * n + 5 * n, [
            m["broadcast_buffer"] for m in memory.values()]),
        "sender data buffer": (n**3 + n**2 + n, [
            m["data_buffer"] for node, m in memory.items() if node == "0"]),
    }
