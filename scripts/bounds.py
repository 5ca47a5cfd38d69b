#!/usr/bin/env python3
"""Run every scenario of one family from `slidenet.scenarios` and print,
for each of the paper's bounds that the family measures, the worst value
against its limit.  Exit codes: 0 every bound holds, 2 configuration
error, 4 a value past its limit or a run that raises an invariant or
localization failure.  Such a run prints its error to stderr and its
scenario to stdout, as one line of JSON that `slidenet run` takes.

    python3 scripts/bounds.py --family attack --n 4
"""

import argparse
import json
import sys
import time

from slidenet import run_scenario
from slidenet.adversary import ConfigError
from slidenet.engine import FAILED_RESULTS
from slidenet.localize import LocalizationError
from slidenet.scenarios import FAMILIES
from slidenet.util import InvariantError


def measure(report, eng):
    """bound -> (its limit, the values one run measures), with the
    formulas tests/test_acceptance.py asserts."""
    n, D, ts = eng.n, eng.D, report["transmissions"]
    failed = [t["T"] for t in ts if t["result"] in FAILED_RESULTS]
    memory = report.get("memory", {})
    slide = eng.sc.mode == "slide"
    return {
        "delivery round (slide)": (3 * D, [
            d["round"] - (d["T"] - 1) * eng.L
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--family", choices=sorted(FAMILIES), required=True)
    ap.add_argument("--n", type=int, default=4)
    args = ap.parse_args(argv)

    t0 = time.time()
    worst = {}      # bound -> (worst value, limit)
    try:
        scenarios = FAMILIES[args.family](args.n)
        for sc in scenarios:
            try:
                table = measure(*run_scenario(sc))
            except (InvariantError, LocalizationError) as exc:
                print(f"invariant failure: {exc}", file=sys.stderr)
                print(json.dumps(sc.to_dict(), sort_keys=True))
                return 4
            for name, (limit, values) in table.items():
                if values and (name not in worst
                               or max(values) > worst[name][0]):
                    worst[name] = (max(values), limit)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.family} family, n={args.n}: {len(scenarios)} scenario(s) "
          f"in {time.time() - t0:.1f} s")
    for name, (value, limit) in worst.items():
        print(f"  {name:<32}{value:>6} {'<=' if value <= limit else '>'} "
              f"{limit}")
    return 4 if any(value > limit for value, limit in worst.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
