#!/usr/bin/env python3
"""The slidenet benchmark.

    python3 slidebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 slidebench/run.py            # every workload, pinned seed

Each workload run is a fresh child process (`child.py`) that runs
`slidenet run` on a scenario file, as a user does, one at a time.  Runs
repeat until `--seconds` would be exceeded (at least three untraced runs)
and the metrics are their medians.

`--trace 0` prints the end-to-end metrics of untraced runs.  `--trace 1`
alternates untraced and traced runs and prints the per-layer metrics of
the traced ones, plus the tracing overhead; the two kinds are never mixed.

Every run is checked: exit codes (and the audit's, where the workload has
one), every requested message delivered, the workload's expected
transmission results and eliminations, equal report digests across the
runs, and at the pinned seed the digest in `golden.json`.  A traced run
also fails if a span the workload uses recorded no call or a pinned count
moved.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

MIN_RUNS = 3            # untraced runs per --trace 0 measurement
MAX_SECONDS = 170       # never start a run that would end later than this
CHILD_TIMEOUT_S = 150


class Sample:
    """One child run: its host measurements and failed checks.

    `segments` splits the run's wall time at clock stamps shared by parent
    and child: process start to `Engine.run`, each block of ROUND_BLOCK
    rounds, and the end of `Engine.run` to process exit."""

    def __init__(self, rss_mb, timings=None, segments=None, digest=None,
                 errors=()):
        self.rss_mb = rss_mb
        self.timings = timings
        self.segments = segments
        self.digest = digest
        self.errors = list(errors)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def report_digest(report):
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


def spawn(cmd, env, stderr):
    """Run cmd to completion; return (exit code, time.monotonic() at start
    and at exit, peak RSS MB of that process alone)."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=stderr)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


class Bench:
    def __init__(self, workload, seed, golden):
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.work = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
        self.scenario = os.path.join(self.work, "scenario.json")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, self.env.get("PYTHONPATH")) if p)
        # str hashing order is part of the input; fixing it removes one
        # source of run-to-run variation (reports do not depend on it)
        self.env["PYTHONHASHSEED"] = "0"
        self._seq = 0

    def write_scenario(self, slidenet):
        os.makedirs(self.work, exist_ok=True)
        scenario = self.workload.build(slidenet, self.seed)
        with open(self.scenario, "w") as fh:
            json.dump(scenario.to_dict(), fh, sort_keys=True, indent=1)

    def run_once(self, layers):
        self._seq += 1
        out = os.path.join(self.work, f"run{self._seq}")
        os.makedirs(out)
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               self.scenario, out]
        if self.workload.trace:
            cmd.append("--trace")
        if layers:
            cmd.append("--layers")
        try:
            with open(os.path.join(out, "stderr.txt"), "w") as err:
                rc, start, end, rss_mb = spawn(cmd, self.env, err)
            return self._check(out, rc, start, end, rss_mb, layers)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out, rc, start, end, rss_mb, layers):
        name = self.workload.name
        timings_path = os.path.join(out, "timings.json")
        if rc != 0 or not os.path.exists(timings_path):
            with open(os.path.join(out, "stderr.txt")) as fh:
                tail = fh.read()[-2000:]
            return Sample(rss_mb, errors=[f"child exited {rc}: {tail}"])
        timings = load_json(timings_path)
        errors = []
        if not timings["slidenet"].startswith(SRC + os.sep):
            errors.append(f"imported slidenet from {timings['slidenet']}")
        if timings["run_rc"] != 0:
            errors.append(f"slidenet run exited {timings['run_rc']}")
            return Sample(rss_mb, errors=errors)
        if self.workload.trace and timings["audit_rc"] != 0:
            errors.append(f"slidenet audit exited {timings['audit_rc']}")
        report = load_json(os.path.join(out, "report.json"))
        digest = report_digest(report)
        errors += self.workload.check_report(report)
        if self.seed == self.golden["seed"] \
                and digest != self.golden["report_sha256"][name]:
            errors.append(f"report digest {digest} differs from the pinned "
                          f"{self.golden['report_sha256'][name]}")
        if layers:
            errors += self.workload.check_layers(timings["calls"],
                                                 timings["layers"])
        stamps = [start] + timings["stamps"] + [end]
        segments = [b - a for a, b in zip(stamps, stamps[1:])]
        return Sample(rss_mb, timings, segments, digest, errors)

    def measure(self, seconds, traced):
        """Repeat runs (untraced, or untraced+traced pairs) for `seconds`."""
        plain, layered, durations = [], [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            plain.append(self.run_once(layers=False))
            if traced:
                layered.append(self.run_once(layers=True))
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            next_end = elapsed + statistics.median(durations)
            if next_end > MAX_SECONDS:
                break
            if len(durations) >= (1 if traced else MIN_RUNS) \
                    and next_end > seconds:
                break
        # every run of one seed must produce the same report, in as many
        # rounds
        measured = [s for s in plain + layered if s.segments]
        for what, values in (
                ("report digests", {s.digest for s in measured}),
                ("round blocks", {len(s.segments) for s in measured})):
            if len(values) > 1:
                for s in measured:
                    s.errors.append(f"{what} differ across runs: "
                                    f"{sorted(values)}")
        return plain, layered


def fastest(samples):
    """Per segment, the fastest of the repeated runs.  Contention from
    other tenants slowed the baseline host by 20-60% for seconds to
    minutes; a segment's minimum over repeats is its cost with the least
    of that."""
    return [min(col) for col in zip(*(s.segments for s in samples))]


def rounds_per_s(samples):
    return samples[0].timings["rounds"] / sum(fastest(samples)[1:-1])


def end_to_end(plain):
    return {
        "wall_s": sum(fastest(plain)),
        "setup_s": min(s.timings["setup_s"] for s in plain),
        "rounds_per_s": rounds_per_s(plain),
        "peak_rss_mb": statistics.median(s.rss_mb for s in plain),
    }


def per_layer(plain, layered):
    # median_low keeps each value one that a traced run measured (counts
    # stay whole numbers)
    out = {n: statistics.median_low(s.timings["layers"][n] for s in layered)
           for n in layered[0].timings["layers"]}
    out["trace.overhead_ratio"] = rounds_per_s(plain) / rounds_per_s(layered)
    return out


def run_workload(workload, seed, seconds, traced, spec, golden, slidenet):
    name = workload.name
    bench = Bench(workload, seed, golden)
    try:
        bench.write_scenario(slidenet)
        plain, layered = bench.measure(seconds, traced)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass            # another benchmark process is using it
    samples = plain + layered
    failed = [s for s in samples if s.errors]
    for s in failed:
        for err in s.errors:
            print(f"{name}: check failed: {err}", file=sys.stderr)
    plain_ok = [s for s in plain if not s.errors]
    layered_ok = [s for s in layered if not s.errors]
    if not plain_ok or (traced and not layered_ok):
        print(f"{name}: no run passed its checks", file=sys.stderr)
        return None
    values = per_layer(plain_ok, layered_ok) if traced \
        else end_to_end(plain_ok)
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    error_share = len(failed) / len(samples)
    print(f"{name} seed={seed} trace={int(traced)}: {len(plain)} untraced"
          + (f" + {len(layered)} traced" if traced else "")
          + f" runs, error_share {error_share:.4f}")
    for key, m in metrics.items():
        print(f"  {key:30s} {m['value']:.6g} {m['unit']}")
    return {"correct": not failed, "attempted": len(samples),
            "failed": len(failed), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the pinned one)")
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per workload (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "slidenet", "__init__.py")):
        print(f"error: no slidenet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import slidenet
    from workloads import WORKLOADS

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    golden = load_json(os.path.join(HERE, "golden.json"))
    seed = golden["seed"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], seed, seconds,
                              bool(args.trace), spec, golden, slidenet)
        if result is None:
            return 1
        results.append(result)
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
