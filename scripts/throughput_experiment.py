#!/usr/bin/env python3
"""Throughput under sustained adversarial pressure: two corrupt nodes,
x = n^2 + 10 transmissions, reporting delivered counts against the
x - n^2 floor.

    python3 scripts/throughput_experiment.py --n 4 --seed 5
"""

import argparse
import time

from slidenet import Corruption, Scenario, derive_params, run_scenario


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--p", type=float, default=0.15)
    args = ap.parse_args()

    n = args.n
    x = n * n + 10
    length = 4 * derive_params(n, "3/8").packets_per_codeword
    sc = Scenario(
        n=n, mode="auth", messages=x, max_transmissions=x,
        schedule_kind="churn", schedule_p=args.p, schedule_seed=args.seed,
        backbone=[0, n - 1],
        corruptions=[
            Corruption(node=1, round_index=1, behavior="deleter"),
            Corruption(node=2, round_index=3 * length,
                       behavior="duplicator"),
        ])
    t0 = time.time()
    report, eng = run_scenario(sc)
    delivered = len(report["delivered"])
    print(f"n={n}, x={x} transmissions in {time.time()-t0:.1f}s")
    print("results:", [t["result"] for t in report["transmissions"]])
    print(f"delivered {delivered} messages (floor x - n^2 = {x - n * n})")
    print(f"failed transmissions: {len(report['failures'])}; "
          f"eliminations: {[(e['T'], e['node']) for e in report['eliminations']]}")


if __name__ == "__main__":
    main()
