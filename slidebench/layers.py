"""Outside-in per-layer tracing for the benchmark's traced run.

The tracer replaces public functions of each slidenet module with a
wrapper that records the call count, the total time and the self time
(total minus the time covered by wrapped callees).  Functions that share
a span name are one layer boundary; a call that re-enters a span already
open is counted but its time is covered by the outer call.

The wrappers must patch the names the program actually calls:

* `AuthNode.okay_to_send`/`okay_to_receive` are class aliases of
  `okay_to_transfer`, so the aliases themselves are wrapped;
* `crypto` binds `pack` by name, so `slidenet.crypto.pack` is wrapped
  beside `slidenet.util.pack` (which `util.digest` calls);
* `engine` binds the adversary and localize functions by name, so the
  `slidenet.engine.*` names are wrapped.

Tracing costs a large share of run time; per-layer numbers are never read
from, or mixed with, the untraced end-to-end run.
"""

from __future__ import annotations

import importlib
import time

# (module[:class], attribute, span).  A span whose functions call each
# other is timed once, at the outermost call.
SPANS = [
    ("slidenet.cli", "cmd_run", "cli.run"),
    ("slidenet.cli", "cmd_audit", "cli.audit"),
    ("slidenet.engine:Scenario", "from_dict", "scenario.parse"),
    ("slidenet.engine:Engine", "__init__", "engine.init"),
    ("slidenet.engine:Engine", "run", "engine.run"),
    ("slidenet.engine:Engine", "_stage1", "engine.stage1"),
    ("slidenet.engine:Engine", "_stage2", "engine.stage2"),
    ("slidenet.engine:Engine", "_post_round", "engine.post_round"),
    ("slidenet.engine:Engine", "_check_round", "engine.check_round"),
    ("slidenet.engine:Engine", "_potential", "engine.potential"),
    ("slidenet.engine:Engine", "_refresh_delivery", "engine.refresh_delivery"),
    ("slidenet.engine:Engine", "_check_ledger_pairing",
     "engine.ledger_pairing"),
    ("slidenet.engine", "generate_schedule", "adversary.schedule"),
    ("slidenet.engine", "validate_conforming", "adversary.schedule"),
    ("slidenet.engine", "find_honest_path", "adversary.honest_path"),
    ("slidenet.engine", "run_localization", "localize.run_localization"),
    ("slidenet.codec", "encode", "codec.encode"),
    ("slidenet.codec", "decode", "codec.decode"),
    ("slidenet.crypto:KeyRing", "sign", "crypto.sign"),
    ("slidenet.crypto:KeyRing", "verify", "crypto.verify"),
    ("slidenet.crypto", "pack", "util.pack"),
    ("slidenet.util", "pack", "util.pack"),
    ("slidenet.buffers:IncomingBuffer", "receive", "buffers.receive"),
    ("slidenet.buffers:OutgoingBuffer", "fold_reply", "buffers.fold_reply"),
    ("slidenet.node:NodeState", "reshuffle", "node.reshuffle"),
    ("slidenet.node:NodeState", "check_invariants", "node.check_invariants"),
    ("slidenet.node:NodeState", "receiver_drain", "node.receiver_drain"),
    ("slidenet.node:NodeState", "sender_refill", "node.sender_refill"),
    ("slidenet.node:NodeState", "sender_redistribute", "node.sender_refill"),
    ("slidenet.auth:AuthNode", "build_stage1_reply", "auth.stage1_reply"),
    ("slidenet.auth:AuthNode", "verify_stage1_reply", "auth.stage1_reply"),
    ("slidenet.auth:AuthNode", "build_packet_msg", "auth.packet_msg"),
    ("slidenet.auth:AuthNode", "verify_packet_msg", "auth.packet_msg"),
    ("slidenet.auth:AuthNode", "sync_on_confirm", "auth.packet_msg"),
    ("slidenet.auth:AuthNode", "sync_on_accept", "auth.packet_msg"),
    ("slidenet.auth:AuthNode", "okay_to_send", "auth.gate"),
    ("slidenet.auth:AuthNode", "okay_to_receive", "auth.gate"),
    ("slidenet.auth:AuthNode", "take_cbp", "auth.broadcast"),
    ("slidenet.auth:AuthNode", "make_request", "auth.broadcast"),
    ("slidenet.auth:AuthNode", "on_cbp", "auth.broadcast"),
    ("slidenet.auth:AuthNode", "on_request", "auth.broadcast"),
    ("slidenet.auth:AuthNode", "choose_parcel", "auth.broadcast"),
    ("slidenet.auth:AuthNode", "wrap_hop", "auth.broadcast"),
    ("slidenet.auth:AuthNode", "on_parcel", "auth.parcel"),
    ("slidenet.auth:SenderAuth", "on_parcel", "auth.parcel"),
    ("slidenet.auth:AuthNode", "note_watermarks", "auth.watermarks"),
    ("slidenet.auth:SenderAuth", "note_watermarks", "auth.watermarks"),
]

# The spans an untraced run needs for its end-to-end metrics.  All but
# `engine.post_round` are entered once per run; that one only stamps the
# clock every ROUND_BLOCK rounds, which costs well under 1% of a round.
TIMER_SPANS = ("scenario.parse", "engine.init", "engine.run",
               "engine.post_round")
ROUND_BLOCK = 128

class Tracer:
    """Installs wrappers around slidenet functions and accumulates, per
    span, [calls, total seconds, self seconds], plus named counters."""

    def __init__(self):
        self.spans = {}
        self.counts = {}
        self.engine = None
        self.stamps = []      # time.monotonic() at run start, every
                              # ROUND_BLOCK rounds, and at run end
        self._open = set()
        self._stack = []      # child seconds of each open span

    def install(self, only=None):
        hooks = {
            "crypto.verify": self._on_verify,
            "util.pack": self._on_pack,
            "buffers.receive": self._on_receive,
            "localize.run_localization": self._on_verdict,
            "engine.run": self._on_engine_run,
            "engine.post_round": self._on_round,
        }
        for target, attr, span in SPANS:
            if only is not None and span not in only:
                continue
            module_name, _, cls_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
                fn = owner.__dict__[attr]
            else:
                fn = getattr(owner, attr)
            if isinstance(fn, classmethod):
                wrapped = classmethod(self._wrap(fn.__func__, span,
                                                 hooks.get(span)))
            else:
                wrapped = self._wrap(fn, span, hooks.get(span))
            setattr(owner, attr, wrapped)

    def _wrap(self, fn, span, hook):
        stats = self.spans.setdefault(span, [0, 0.0, 0.0])
        is_open = self._open
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stats[0] += 1
            if span in is_open:
                result = fn(*args, **kwargs)
            else:
                is_open.add(span)
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    covered = stack.pop()
                    is_open.discard(span)
                    stats[1] += elapsed
                    stats[2] += elapsed - covered
                    if stack:
                        stack[-1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _on_verify(self, args, ok):
        if not ok:
            self._count("verify_rejects")

    def _on_pack(self, args, data):
        self._count("pack_bytes", len(data))

    def _on_receive(self, args, res):
        if args[1] is not None:
            self._count("receive_nonempty")
            if res[0] == "accept":
                self._count("receive_accepts")

    def _on_verdict(self, args, verdict):
        if verdict is not None:
            self._count("verdicts")

    def _on_engine_run(self, args, report):
        end = time.monotonic()
        self.engine = args[0]
        self.stamps = ([end - self.total("engine.run")] + self.stamps
                       + [end])

    def _on_round(self, args, result):
        if self.calls("engine.post_round") % ROUND_BLOCK == 0:
            self.stamps.append(time.monotonic())

    # -- results ---------------------------------------------------------

    def calls(self, span):
        return self.spans.get(span, (0, 0.0, 0.0))[0]

    def total(self, span):
        return self.spans.get(span, (0, 0.0, 0.0))[1]

    def self_time(self, span):
        return self.spans.get(span, (0, 0.0, 0.0))[2]

    def rounds(self):
        """Rounds `Engine.run` executed: every transmission before the last
        runs all L rounds, so the last global round index is the count."""
        return self.engine.g_round if self.engine is not None else 0

    def layer_metrics(self, report, trace_bytes):
        """Every per-layer metric of one traced workload run."""
        c = self.counts
        sigops = self.calls("crypto.sign") + self.calls("crypto.verify")
        verifies = self.calls("crypto.verify")
        nonempty = c.get("receive_nonempty", 0)
        tms = report["transmissions"]
        return {
            "codec.encode_s": self.total("codec.encode"),
            "codec.encode_calls": self.calls("codec.encode"),
            "codec.decode_s": self.total("codec.decode"),
            "codec.decode_calls": self.calls("codec.decode"),
            "crypto.sign_s": self.total("crypto.sign"),
            "crypto.sign_calls": self.calls("crypto.sign"),
            "crypto.verify_s": self.total("crypto.verify"),
            "crypto.verify_calls": verifies,
            "crypto.verify_reject_ratio":
                c.get("verify_rejects", 0) / verifies if verifies else 0.0,
            "util.pack_s": self.total("util.pack"),
            "util.pack_calls": self.calls("util.pack"),
            "util.pack_bytes": c.get("pack_bytes", 0),
            "util.pack_per_sigop":
                self.calls("util.pack") / sigops if sigops else 0.0,
            "buffers.receive_s": self.total("buffers.receive"),
            "buffers.fold_reply_s": self.total("buffers.fold_reply"),
            "buffers.accept_ratio":
                c.get("receive_accepts", 0) / nonempty if nonempty else 0.0,
            "node.reshuffle_s": self.total("node.reshuffle"),
            "node.reshuffle_calls": self.calls("node.reshuffle"),
            "node.check_invariants_s": self.total("node.check_invariants"),
            "node.receiver_drain_s": self.total("node.receiver_drain"),
            "node.sender_refill_s": self.total("node.sender_refill"),
            "auth.stage1_reply_s": self.total("auth.stage1_reply"),
            "auth.packet_msg_s": self.total("auth.packet_msg"),
            "auth.gate_s": self.total("auth.gate"),
            "auth.gate_calls": self.calls("auth.gate"),
            "auth.broadcast_s": (self.total("auth.broadcast")
                                 + self.total("auth.parcel")),
            "auth.parcels_delivered": self.calls("auth.parcel"),
            "auth.watermarks_s": self.total("auth.watermarks"),
            "localize.run_localization_s":
                self.total("localize.run_localization"),
            "localize.verdicts": c.get("verdicts", 0),
            "adversary.schedule_s": self.total("adversary.schedule"),
            "adversary.honest_path_s": self.total("adversary.honest_path"),
            "engine.stage1_self_s": self.self_time("engine.stage1"),
            "engine.stage2_self_s": self.self_time("engine.stage2"),
            "engine.post_round_self_s": self.self_time("engine.post_round"),
            "engine.check_round_self_s": self.self_time("engine.check_round"),
            "engine.potential_s": self.total("engine.potential"),
            "engine.refresh_delivery_s": self.total("engine.refresh_delivery"),
            "engine.ledger_pairing_s": self.total("engine.ledger_pairing"),
            "engine.ledger_pairing_calls":
                self.calls("engine.ledger_pairing"),
            "engine.self_s": self.self_time("engine.run"),
            "engine.rounds": self.rounds(),
            "engine.blocked_rounds": sum(t["blocked"] for t in tms),
            "engine.wasted_rounds": sum(t["wasted"] for t in tms),
            "cli.run_self_s": (self.total("cli.run") - self.total("engine.init")
                               - self.total("engine.run")),
            "cli.audit_s": self.total("cli.audit"),
            "cli.trace_bytes": trace_bytes,
        }
