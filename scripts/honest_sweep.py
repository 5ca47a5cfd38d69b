#!/usr/bin/env python3
"""Sweep honest runs over seeded churn schedules and summarize delivery
rounds, blocked rounds, and potential drops.

    python3 scripts/honest_sweep.py --n 4 --seeds 10 --p 0.3 --mode slide
"""

import argparse
import statistics

from slidenet import Scenario, run_scenario


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--p", type=float, default=0.3)
    ap.add_argument("--mode", choices=["slide", "auth"], default="slide")
    args = ap.parse_args()

    rounds = []
    for seed in range(args.seeds):
        sc = Scenario(n=args.n, mode=args.mode, messages=1,
                      max_transmissions=1, schedule_kind="churn",
                      schedule_p=args.p, schedule_seed=seed, seed=seed)
        report, eng = run_scenario(sc)
        d = report["delivered"][0]
        tm = report["transmissions"][0]
        rounds.append(d["round"])
        print(f"seed {seed:3d}: delivered at round {d['round']:5d}  "
              f"blocked {tm['blocked']:4d}  wasted {tm['wasted']:3d}  "
              f"potential drop {tm['potential_drop']:6d}")
    limit = 3 * eng.D
    print(f"\n{args.seeds} runs at n={args.n}, p={args.p}: "
          f"median delivery {statistics.median(rounds):.0f}, "
          f"worst {max(rounds)} (bound {limit})")


if __name__ == "__main__":
    main()
