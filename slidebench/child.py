"""Run one workload in this fresh process, the way a user runs it, and
write the run's timings to a JSON file.

    python3 slidebench/child.py SCENARIO OUT_DIR [--trace] [--layers]

`slidenet run SCENARIO --out OUT_DIR` runs in-process through
`slidenet.cli.main`; with `--trace` the run records a trace and
`slidenet audit` replays it.  Without `--layers` only the spans of
`layers.TIMER_SPANS` are wrapped; with `--layers` every span of
`layers.SPANS` is.  The result goes to
OUT_DIR/timings.json; the exit code is 0 whenever that file was written.
"""

from __future__ import annotations

import argparse
import json
import os
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("scenario")
    ap.add_argument("out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--layers", action="store_true")
    args = ap.parse_args()

    start = time.perf_counter()
    import slidenet
    import slidenet.cli
    import_s = time.perf_counter() - start

    from layers import TIMER_SPANS, Tracer
    tracer = Tracer()
    tracer.install(only=None if args.layers else TIMER_SPANS)

    argv = ["run", args.scenario, "--out", args.out]
    if args.trace:
        argv.append("--trace")
    run_rc = slidenet.cli.main(argv)
    trace_path = os.path.join(args.out, "trace.jsonl")
    audit_rc = None
    if args.trace and run_rc == 0:
        audit_rc = slidenet.cli.main(["audit", trace_path])

    result = {
        "slidenet": os.path.abspath(slidenet.__file__),
        "run_rc": run_rc,
        "audit_rc": audit_rc,
        "setup_s": (import_s + tracer.total("scenario.parse")
                    + tracer.total("engine.init")),
        "run_s": tracer.total("engine.run"),
        "rounds": tracer.rounds(),
        "stamps": tracer.stamps,
    }
    if args.layers and run_rc == 0:
        with open(os.path.join(args.out, "report.json")) as fh:
            report = json.load(fh)
        trace_bytes = (os.path.getsize(trace_path)
                       if os.path.exists(trace_path) else 0)
        result["layers"] = tracer.layer_metrics(report, trace_bytes)
        result["calls"] = {span: tracer.calls(span) for span in tracer.spans}
    with open(os.path.join(args.out, "timings.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
