#!/usr/bin/env python3
"""Run every scripted attacker against the thin-line topology and print
the failure classifications, the elimination verdicts with their
instantiated inequalities, and the recovery outcome.

    python3 scripts/attack_suite.py --n 4
"""

import argparse
import time

from slidenet import run_scenario
from slidenet.adversary import BEHAVIORS
from slidenet.scenarios import attack_scenario

ATTACKS = [name for name in BEHAVIORS if name != "honest"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4)
    args = ap.parse_args()

    for behavior in ATTACKS:
        t0 = time.time()
        sc = attack_scenario(args.n, {2: behavior}, messages=1)
        report, eng = run_scenario(sc)
        results = [t["result"] for t in report["transmissions"]]
        print(f"\n=== {behavior} (n={args.n}, {time.time()-t0:.1f}s) ===")
        print(f"  transmissions: {results}")
        print(f"  delivered: {len(report['delivered'])}")
        for e in report["eliminations"]:
            print(f"  eliminated node {e['node']} in transmission {e['T']} "
                  f"({e['kind']})")
            print(f"    {e['inequality']}")


if __name__ == "__main__":
    main()
