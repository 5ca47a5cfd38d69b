"""Command-line front end.

    slidenet run <scenario.json> [--out DIR] [--trace]
    slidenet audit <trace.jsonl>
    slidenet gen --family NAME [--n N] [--index I]

The scenario file fixes every input of a run, seeds and mode included;
its invariant check level is "full" (the default) or "off".  `gen` prints
scenario I of a `slidenet.scenarios` family at n nodes as such a file.

Exit codes: 0 success, 2 configuration error, 3 conforming-constraint
violation, 4 invariant or audit failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .adversary import ConfigError
from .buffers import network_potential
from .engine import (FAILED_RESULTS, ConformingError, Engine, InvariantError,
                     Scenario)
from .localize import LocalizationError
from .scenarios import FAMILIES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONFORMING = 3
EXIT_INVARIANT = 4


def _write_json(path, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")


# the most `nodes` objects a trace sink, and the audit, keeps at once
NODES_KEPT = 64


class _TraceFile:
    """Trace sink: writes each record the engine appends as one JSON line
    to `path`.partial, which `commit` renames to `path`.  A run that stops
    before then leaves no trace, since an unfinished one can pass
    `audit`.

    State rows often share one `nodes` object (every row of a quiet
    stretch, and each distinct row of an empty one), so a state row's
    `nodes` goes out once, as a `{"id": i, "k": "nodes", "nodes": ...}`
    record, and the row carries `"nid": i` in its place.  The sink keeps
    the objects it wrote by `id()`, each beside its record id; holding the
    object keeps its `id()` from being reused while the entry lives.  It
    keeps at most NODES_KEPT, and clears them all when full."""

    def __init__(self, path):
        self.path = path
        self.fh = open(path + ".partial", "w", buffering=1 << 20)
        self._encode = json.JSONEncoder(sort_keys=True,
                                        check_circular=False).encode
        self._nodes = {}              # id(nodes) -> (nodes, its record id)
        self._next_id = 0

    def append(self, rec):
        if rec["k"] == "state":
            nodes = rec["nodes"]
            kept = self._nodes.get(id(nodes))
            if kept is None:
                if len(self._nodes) >= NODES_KEPT:
                    self._nodes.clear()
                kept = self._nodes[id(nodes)] = (nodes, self._next_id)
                self._next_id += 1
                self.fh.write(self._encode(
                    {"id": kept[1], "k": "nodes", "nodes": nodes}) + "\n")
            rec = dict(rec, nid=kept[1])
            del rec["nodes"]
        self.fh.write(self._encode(rec) + "\n")

    def commit(self):
        self.fh.close()
        os.replace(self.fh.name, self.path)

    def discard(self):
        self.fh.close()
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.fh.name)


def cmd_run(args) -> int:
    out_dir = args.out or "."
    try:
        with open(args.scenario) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:    # an int of too many digits too
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with contextlib.ExitStack() as outputs:
        try:
            scenario = Scenario.from_dict(data)
            scenario.check()
            os.makedirs(out_dir, exist_ok=True)
            sink = None
            if args.trace:
                sink = _TraceFile(os.path.join(out_dir, "trace.jsonl"))
                outputs.callback(sink.discard)
                sink.append({"k": "run", "scenario": scenario.to_dict(),
                             "digest": scenario.digest(),
                             "honest": not scenario.corruptions,
                             "n": scenario.n})
            engine = Engine(scenario, trace=sink)
        except (OSError, ConfigError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except ConformingError as exc:
            print(f"conforming violation: {exc}", file=sys.stderr)
            return EXIT_CONFORMING
        try:
            report = engine.run()
        except (InvariantError, LocalizationError) as exc:
            print(f"invariant failure: {exc}", file=sys.stderr)
            return EXIT_INVARIANT
        _write_json(os.path.join(out_dir, "report.json"), report)
        if sink is not None:
            sink.commit()
    delivered = len(report["delivered"])
    failed = sum(t["result"] in FAILED_RESULTS
                 for t in report["transmissions"])
    print(f"delivered {delivered}/{report['messages_requested']} messages "
          f"in {len(report['transmissions'])} transmissions; "
          f"{failed} failed; "
          f"{len(report['eliminations'])} eliminations")
    return EXIT_OK


def _audit_nodes(rec, n, honest_nodes, errors) -> tuple:
    """Check the buffer rows of one `nodes` record: every height in
    [0, 2n], and an honest internal node's heights balanced.  Return the
    potentials of its internal nodes."""
    where = f"nodes {rec['id']}"
    internal_rows = []
    cap = 2 * n
    for node_str, bufs in sorted(rec["nodes"].items()):
        node = int(node_str)
        heights = []
        if not isinstance(bufs, list):
            raise ValueError(f"{where}: node {node} buffers are not a "
                             f"list: {bufs!r}")
        for row in bufs:
            if not (isinstance(row, list) and len(row) == 5
                    and isinstance(row[2], int)
                    and (row[3] is None or isinstance(row[3], int))):
                raise ValueError(f"{where}: node {node} buffer row {row!r} "
                                 f"is not [kind, peer, height, extra, "
                                 f"accepted]")
            h = row[2]
            heights.append(h)
            if h < 0 or h > cap:
                errors.append(f"{where}: node {node} buffer height {h} "
                              f"outside [0, {cap}]")
            if node not in (0, n - 1):
                internal_rows.append(row)
        if node in honest_nodes and node not in (0, n - 1) and heights:
            if max(heights) - min(heights) > 1:
                errors.append(f"{where}: node {node} unbalanced heights "
                              f"{heights}")
    return network_potential(internal_rows)


class _Findings(list):
    """The first 20 audit findings; `total` counts all of them."""
    total = 0

    def append(self, msg):
        self.total += 1
        if self.total <= 20:
            super().append(msg)


# the fields the audit reads from each kind of trace record, and their types
_RECORD_FIELDS = {"run": {"n": int, "scenario": dict}, "endT": {"T": int},
                  "nodes": {"id": int, "nodes": dict},
                  "state": {"g": int, "r": int, "gain": int, "nid": int}}


def _trace_records(fh):
    """Each non-blank line of a trace file, decoded: an object with a
    string "k" and the fields the audit reads."""
    for line in fh:
        if line.strip():
            rec = json.loads(line)
            if not isinstance(rec, dict) or not isinstance(rec.get("k"), str):
                raise ValueError(f"not a trace record: {line.strip()[:80]}")
            bad = [f for f, t in _RECORD_FIELDS.get(rec["k"], {}).items()
                   if not isinstance(rec.get(f), t)]
            if bad:
                raise ValueError(f"{rec['k']} record without a valid "
                                 f"{', '.join(bad)}: {line.strip()[:80]}")
            yield rec


def cmd_audit(args) -> int:
    try:
        with open(args.trace) as fh:
            return _audit(_trace_records(fh))
    except (OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _audit(records) -> int:
    """Replay the invariants over trace records parsed one at a time; a
    malformed line stops it before it prints any finding.  Each `nodes`
    record is checked once, and each state row against the potentials of
    the one it names, kept as the sink keeps its objects."""
    header = next(records, {})
    if header.get("k") != "run":
        print("configuration error: not a trace file", file=sys.stderr)
        return EXIT_CONFIG
    n, honest = header["n"], header.get("honest")
    corruptions = header["scenario"].get("corruptions", [])
    if not (isinstance(corruptions, list) and all(
            isinstance(c, dict) and isinstance(c.get("node"), int)
            for c in corruptions) and honest is (not corruptions)):
        raise ValueError(f"run record whose scenario.corruptions is not a "
                         f"list of objects with an integer node, empty "
                         f"just when its honest {honest!r:.20} is true: "
                         f"{corruptions!r:.80}")
    corrupt = {c["node"] for c in corruptions}
    honest_nodes = {i for i in range(n) if i not in corrupt}
    dup_bound = 2 * n**3 - 8 * n**2 + 8 * n

    errors = _Findings()
    kept = {}                   # nodes record id -> (phi_nd, phi_dup)
    prev_nd = None
    tx_gain = tx_blocked_unwasted = tx_start_nd = rounds_seen = 0
    for rec in records:
        if rec["k"] == "nodes":
            if len(kept) >= NODES_KEPT:
                kept.clear()
            kept[rec["id"]] = _audit_nodes(rec, n, honest_nodes, errors)
        elif rec["k"] == "state":
            rounds_seen += 1
            if rec["nid"] not in kept:
                errors.append(f"round {rec['g']}: nid {rec['nid']} names "
                              f"no kept nodes record")
                # this transmission's drop, and the next row's rise, are
                # unknown
                prev_nd = tx_start_nd = None
                continue
            phi_nd, phi_dup = kept[rec["nid"]]
            if rec.get("nd") is not None and rec["nd"] != phi_nd:
                errors.append(f"round {rec['g']}: recorded potential "
                              f"{rec['nd']} != recomputed {phi_nd}")
            if honest:
                if not 0 <= phi_dup <= dup_bound:
                    errors.append(f"round {rec['g']}: duplication potential "
                                  f"{phi_dup} outside [0, {dup_bound}]")
                if prev_nd is not None and rec["r"] != 1 \
                        and phi_nd - prev_nd > rec["gain"]:
                    errors.append(
                        f"round {rec['g']}: potential rose {phi_nd - prev_nd}"
                        f" with insertions {rec['gain']}")
            prev_nd = phi_nd
            tx_gain += rec["gain"]
            if rec["r"] == 1:
                tx_start_nd = phi_nd - rec["gain"]
                tx_gain = rec["gain"]
                tx_blocked_unwasted = 0
            if rec.get("blocked") and not rec.get("wasted"):
                tx_blocked_unwasted += 1
        elif rec["k"] == "endT" and honest and prev_nd is not None \
                and tx_start_nd is not None:
            drop = tx_start_nd + tx_gain - prev_nd
            need = n * tx_blocked_unwasted
            if drop < need:
                errors.append(f"transmission {rec['T']}: potential drop "
                              f"{drop} below n*blocked = {need}")
    if rounds_seen == 0:
        errors.append("trace contains no state rows (was it recorded with "
                      "--trace?)")
    for err in errors:
        print(f"audit: {err}", file=sys.stderr)
    if errors:
        print(f"audit failed with {errors.total} finding(s)", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"audit passed over {rounds_seen} recorded rounds")
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        family = FAMILIES[args.family](args.n)
        if not 0 <= args.index < len(family):
            print(f"configuration error: no index {args.index} among the "
                  f"{len(family)} {args.family} scenarios", file=sys.stderr)
            return EXIT_CONFIG
        scenario = family[args.index]
        Engine(scenario)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConformingError as exc:
        print(f"conforming violation: {exc}", file=sys.stderr)
        return EXIT_CONFORMING
    json.dump(scenario.to_dict(), sys.stdout, sort_keys=True, indent=1)
    print()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slidenet",
        description="Deterministic Slide-protocol adversarial routing "
                    "simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--trace", action="store_true",
                       help="record a per-round trace")
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", help="replay invariants over a trace")
    p_audit.add_argument("trace")
    p_audit.set_defaults(func=cmd_audit)

    p_gen = sub.add_parser("gen", help="print a family's scenario file")
    p_gen.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p_gen.add_argument("--n", type=int, default=4)
    p_gen.add_argument("--index", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
