"""Synchronous round executor.

Each round has two stages.  Stage 1 exchanges height advertisements and
signed replies (plus broadcast confirmations/requests in authenticated
mode); stage 2 exchanges broadcast parcels and then packets, followed by
the local re-shuffle.  All messages of a stage are computed from
pre-stage state and exchanged at a barrier, so node handlers never see a
neighbor's mid-stage updates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from . import codec
from .adversary import (BEHAVIORS, ConfigError, Corruption, edge_key,
                        find_honest_path, generate_schedule,
                        validate_conforming)
from .auth import REASON_OK, AuthNode, LedgerPairing, SenderAuth
from .buffers import Stored, network_potential
from .crypto import BACKENDS, keygen
from .localize import build_report_set, run_localization
from .node import INTERNAL, RECEIVER, SENDER, NodeState
from .util import InvariantError, digest


# the transmission results that count against the paper's failure budgets
# (n per elimination, n^2 in all); a transmission that ends in an
# elimination is not one of them
FAILED_RESULTS = ("f2", "f3", "f4")

# the most distinct state rows an empty stretch keeps for reuse
ROWS_KEPT = 64


class ConformingError(RuntimeError):
    def __init__(self, round_index):
        super().__init__(f"no active honest sender-receiver path in round "
                         f"{round_index}")
        self.round_index = round_index


@dataclass
class Scenario:
    """Every input of a run, kept to the rules `check()` applies."""
    n: int = 4
    mode: str = "slide"             # "slide" or "auth"
    lam: str = "3/8"
    sigma: str = None
    fragment_bytes: int = 2
    messages: int = 1
    max_transmissions: int = None
    schedule_kind: str = "static"
    schedule_p: float = 0.0
    schedule_seed: int = 0
    schedule_script: list = None
    backbone: list = None
    schedule_repair: bool = True
    corruptions: list = field(default_factory=list)
    crypto_backend: str = "oracle"
    seed: int = 0
    checks: str = "full"            # "full" | "off"

    def to_dict(self) -> dict:
        out = {key: getattr(self, attr) for key, attr in _ATTRS[""].items()}
        out["lam"] = str(self.lam)
        out["sigma"] = None if self.sigma is None else str(self.sigma)
        out["schedule"] = {key: getattr(self, attr)
                           for key, attr in _ATTRS["schedule"].items()}
        out["corruptions"] = [{key: getattr(c, attr) for key, attr
                               in _ATTRS["corruptions"].items()}
                              for c in self.corruptions]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Parse the dict form written by `to_dict`, with the keys of
        `FIELDS`: an unknown key raises ConfigError, and so does a missing
        `n`, or a corruptions entry's node or behavior; other missing keys
        take the field defaults.  The values are left to `check()`."""
        _reject_unknown("scenario", data, [*_ATTRS[""], "schedule"])
        sched = data.get("schedule", {})
        _reject_unknown("schedule", sched, _ATTRS["schedule"])
        if "n" not in data:
            raise ConfigError("scenario has no node count n")
        corruptions = data.get("corruptions", [])
        if not isinstance(corruptions, list):
            raise ConfigError(f"corruptions {corruptions!r:.80} is not a list")
        for c in corruptions:
            _reject_unknown("corruptions entry", c, _ATTRS["corruptions"])
            for key in ("node", "behavior"):
                if key not in c:
                    raise ConfigError(f"corruptions entry {c!r:.80} has no "
                                      f"{key}")
        kwargs = dict(data, **{_ATTRS["schedule"][key]: value
                               for key, value in sched.items()})
        kwargs.pop("schedule", None)
        kwargs["corruptions"] = [
            Corruption(c["node"], c.get("round", 1), c["behavior"],
                       c.get("params", {})) for c in corruptions]
        return cls(**kwargs)

    def check(self) -> codec.CodingParams:
        """Check every value against `FIELDS`, then the rules between
        fields, and return the coding parameters the scenario derives.
        The first rule broken raises ConfigError naming its field."""
        for key, attr, test, message in FIELDS:
            nested = key.startswith("corruptions.")
            for of in self.corruptions if nested else (self,):
                value = getattr(of, attr)
                if test and not test(value):
                    raise ConfigError(message.format(v=value, of=of))
        try:
            params = codec.derive_params(self.n, self.lam, self.sigma,
                                         fragment_bytes=self.fragment_bytes)
        except codec.CodecError as exc:
            raise ConfigError(str(exc)) from exc
        n, script, bb = self.n, self.schedule_script, self.backbone
        corrupt = set()
        for node in (c.node for c in self.corruptions):
            if not (type(node) is int and 0 < node < n - 1):
                raise ConfigError(f"corruption node {node!r:.80} is not an "
                                  f"internal node 1..{n - 2}")
            if node in corrupt:
                raise ConfigError(f"node {node} is corrupted twice")
            corrupt.add(node)
        if corrupt and self.mode != "auth":
            raise ConfigError("corruptions require authenticated mode")
        for edge in (e for edges in script or () for e in edges):
            if not (_distinct_nodes(edge, n) and len(edge) == 2):
                raise ConfigError(f"schedule.script edge {edge!r:.80} is not "
                                  f"a pair of distinct nodes of 0..{n - 1}")
        if self.schedule_kind == "scripted" and not script:
            raise ConfigError(f"schedule kind 'scripted' needs a non-empty "
                              f"schedule.script, got {script!r:.80}")
        if bb is not None and not (_distinct_nodes(bb, n) and bb
                                   and bb[0] == 0 and bb[-1] == n - 1):
            raise ConfigError(f"backbone {bb!r:.80} is not a path of distinct "
                              f"nodes from 0 to n - 1 = {n - 1}")
        for node in sorted(corrupt.intersection(bb or ())):
            raise ConfigError(f"backbone node {node} is corrupted")
        return params

    def digest(self) -> str:
        return digest(_canon(self.to_dict()))


def _int(least=None):
    return lambda v: type(v) is int and (least is None or v >= least)


def _one_of(*choices):
    return lambda v: type(v) is str and v in choices


def _distinct_nodes(v, n) -> bool:
    return isinstance(v, (list, tuple)) and all(
        type(x) is int and 0 <= x < n for x in v) and len(set(v)) == len(v)


# Every scenario field, once: its file key ("schedule.x" is key x of the
# file's schedule, "corruptions.x" of each corruptions entry), the Scenario
# or Corruption attribute, the test of its value, and the message of a value
# that fails it ({v} the value, {of} its scenario or corruption).  A field
# without a test is left to codec.derive_params or the rules after it.
FIELDS = (
    ("n", "n", _int(4), "n {v!r:.80} is not an int >= 4"),
    ("mode", "mode", _one_of("slide", "auth"),
     "mode {v!r:.80} is not 'slide' or 'auth'"),
    ("lam", "lam", None, None),
    ("sigma", "sigma", None, None),
    ("fragment_bytes", "fragment_bytes", None, None),
    ("messages", "messages", _int(0), "messages {v!r:.80} is not an int >= 0"),
    ("max_transmissions", "max_transmissions",
     lambda v: v is None or _int(0)(v),
     "max_transmissions {v!r:.80} is not null or an int >= 0"),
    ("schedule.kind", "schedule_kind", _one_of("static", "churn", "scripted"),
     "schedule kind {v!r:.80} is not 'static', 'churn' or 'scripted'"),
    ("schedule.p", "schedule_p",
     lambda v: type(v) in (int, float) and 0 <= v <= 1,
     "{of.schedule_kind} p must be a number in [0, 1], got {v!r:.80}"),
    ("schedule.seed", "schedule_seed", _int(),
     "schedule seed {v!r:.80} is not an int"),
    ("schedule.script", "schedule_script",
     lambda v: v is None or isinstance(v, (list, tuple)) and all(
         isinstance(edges, (list, tuple)) for edges in v),
     "schedule.script {v!r:.80} is not a list of per-round edge lists"),
    ("schedule.backbone", "backbone", None, None),
    ("schedule.repair", "schedule_repair", lambda v: type(v) is bool,
     "schedule repair {v!r:.80} is not true or false"),
    ("corruptions", "corruptions", lambda v: isinstance(v, list) and all(
        isinstance(c, Corruption) for c in v),
     "corruptions {v!r:.80} is not a list of Corruption"),
    ("corruptions.node", "node", None, None),
    ("corruptions.round", "round_index", _int(1),
     "corruption round {v!r:.80} is not an int >= 1"),
    ("corruptions.behavior", "behavior", _one_of(*BEHAVIORS),
     "unknown behavior {v!r:.80}"),
    ("corruptions.params", "params", lambda v: v == {},
     "behavior {of.behavior!r} reads no params, got {v!r:.80}"),
    ("crypto_backend", "crypto_backend", _one_of(*BACKENDS),
     "unknown crypto backend {v!r:.80}"),
    ("seed", "seed", _int(), "seed {v!r:.80} is not an int"),
    ("checks", "checks", _one_of("full", "off"),
     "checks {v!r:.80} is not 'full' or 'off'"),
)

# file key -> attribute, at the top level ("") and in each nested object
_ATTRS = {group: {key.rpartition(".")[2]: attr for key, attr, _, _ in FIELDS
                  if key.rpartition(".")[0] == group}
          for group in ("", "schedule", "corruptions")}


def _reject_unknown(where, data, known) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{where} {data!r:.80} is not an object")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


def _canon(obj):
    if isinstance(obj, dict):
        return tuple((k, _canon(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(v) for v in obj)
    if isinstance(obj, float):
        return repr(obj)
    return obj


def message_payload(seed, index: int, size: int) -> bytes:
    rng = random.Random(f"{seed}:payload:{index}")
    return bytes(rng.getrandbits(8) for _ in range(size))


class Engine:
    def __init__(self, scenario: Scenario, trace=None):
        """Runs `scenario.check()` first.  Trace records go to
        `trace.append` as the run makes them; None records none."""
        sc = scenario
        self.sc = sc
        self.params = sc.check()
        self.n = sc.n
        self.D = self.params.packets_per_codeword
        self.auth_mode = sc.mode == "auth"
        self.L = 4 * self.D if self.auth_mode else 3 * self.D
        self.ids = list(range(sc.n))
        self.S = 0
        self.R = sc.n - 1

        self.corrupt_nodes = {c.node: (c.round_index, BEHAVIORS[c.behavior]())
                              for c in sc.corruptions}
        self._corrupt_ids = frozenset(self.corrupt_nodes)

        budget = sc.max_transmissions
        if budget is None:
            budget = sc.messages + (sc.n * sc.n if self.corrupt_nodes else 0)
        self.max_transmissions = budget
        total_rounds = budget * self.L
        self.schedule = generate_schedule(
            sc.schedule_kind, sc.n, total_rounds, seed=sc.schedule_seed,
            p=sc.schedule_p, backbone=sc.backbone,
            corrupt_nodes=self._corrupt_ids,
            script=sc.schedule_script, repair=sc.schedule_repair)
        bad_round = validate_conforming(self.schedule, self._corrupt_ids,
                                        self.S, self.R)
        if bad_round is not None:
            raise ConformingError(bad_round)

        self.nodes = {}
        for i in self.ids:
            role = SENDER if i == self.S else (
                RECEIVER if i == self.R else INTERNAL)
            self.nodes[i] = NodeState(i, role, self.ids, self.S, self.R)
        self._internal = [i for i in self.ids
                          if self.nodes[i].role == INTERNAL]

        self.auth = None
        self.ring = None
        if self.auth_mode:
            self.ring = keygen(self.ids, backend=sc.crypto_backend,
                               seed=sc.seed)
            self.auth = {}
            for i in self.ids:
                cls = SenderAuth if i == self.S else AuthNode
                self.auth[i] = cls(i, self.ring, self.ids, self.S, self.R)

        # every ordered pair (x, y, auth_x, auth_y), for the broadcast;
        # `_delivery` holds each pair's predicate at its index here
        auth = self.auth or dict.fromkeys(self.ids)
        self.all_pairs = [(a, b, auth[a], auth[b]) for a in self.ids
                          for b in self.ids if a != b]
        pair_index = {(a, b): i for i, (a, b, _, _)
                      in enumerate(self.all_pairs)}
        # each ordered pair with its edge's bit in a schedule mask
        self._pair_bits = [(a, b, 1 << self.schedule.bit[edge_key(a, b)])
                           for a, b, _, _ in self.all_pairs]
        # one channel (a, b, ob, ib, auth_a, auth_b, ab, ba) per packet
        # edge: every directed edge except into the sender or out of the
        # receiver, with the indices of its pairs (a, b) and (b, a).  An
        # auth channel's two ledgers share one pairing record.
        self.channels = [(a, b, self.nodes[a].out_buffers[b],
                          self.nodes[b].in_buffers[a], auth[a], auth[b],
                          pair_index[a, b], pair_index[b, a])
                         for a in self.ids for b in self.ids
                         if a != b and a != self.R and b != self.S]
        if self.auth_mode:
            for a, b, _, _, auth_a, auth_b, _, _ in self.channels:
                la, lb = auth_a.out_led[b], auth_b.in_led[a]
                la.pair = lb.pair = LedgerPairing(la.sigp, lb.sigp)

        self.T = 1
        self.delivered = []           # (message_index, global_round, T)
        self.transmissions = []       # per-transmission records
        self.eliminations = []        # {T, round, node, kind, inequality,
                                      # margin}
        self.trace = trace
        self.max_packets = {i: 0 for i in self.ids}
        self._copy = None             # (message index, payload, packets)
        self._behavior = [None] * sc.n    # node -> its active behavior
        self._phi_prev = None         # last checked round's phi_nd

    # -- helpers -----------------------------------------------------------

    def _activate_behaviors(self):
        for node, (act, beh) in self.corrupt_nodes.items():
            if self.g_round >= act and self._behavior[node] is None:
                beh.attach(self.auth[node])
                self.auth[node].attach_behavior(beh)
                self._behavior[node] = beh
                self._emit("corrupt", node=node, behavior=beh.name)

    def _suppressed(self, node) -> bool:
        beh = self._behavior[node]
        if beh is not None and beh.suppress_output():
            return True
        return self.auth_mode and node in self.auth[node].en

    def _refresh_delivery(self):
        """Cache the per-round delivery predicate for every ordered pair,
        in `all_pairs` order: edge active, sending side not silenced,
        neither side treating the other as eliminated."""
        mask = self._mask = self.schedule.mask(self.g_round)
        suppressed = [self._suppressed(x) for x in self.ids]
        en = ([self.auth[x].en for x in self.ids] if self.auth_mode
              else [()] * self.n)
        self._delivery = [bool(mask & bit) and not suppressed[a]
                          and a not in en[b] and b not in en[a]
                          for a, b, bit in self._pair_bits]

    def _is_honest(self, node) -> bool:
        return self._behavior[node] is None

    def _emit(self, kind, **fields):
        if self.trace is not None:
            rec = {"k": kind, "T": self.T, "r": self.r_local}
            rec.update(fields)
            self.trace.append(rec)

    # -- message supply -----------------------------------------------------

    def _load_transmission(self):
        node = self.nodes[self.S]
        msg_index = len(self.delivered) + 1
        # a retry of an undelivered message sends the same packets again
        if self._copy is None or self._copy[0] != msg_index:
            payload = message_payload(self.sc.seed, msg_index,
                                      self.params.message_bytes)
            packets = codec.encode(codec.Message(msg_index, payload),
                                   self.params)
            if self.auth_mode:
                sender = self.auth[self.S]
                packets = tuple(replace(p, sender_signature=sender.sign(
                    p.signed_body())) for p in packets)
            self._copy = (msg_index, payload, packets)
        for buf in node.out_buffers.values():
            buf.reset()
        node.load_reservoir(Stored(p, True) for p in self._copy[2])
        node.sender_refill()

    # -- main loop ------------------------------------------------------------

    def run(self) -> dict:
        while self.T <= self.max_transmissions \
                and len(self.delivered) < self.sc.messages:
            try:
                self._run_transmission()
            except InvariantError as exc:
                raise InvariantError(f"transmission {self.T}, global round "
                                     f"{self.g_round}: {exc}") from exc
            self.T += 1
        return self._report()

    def _run_transmission(self):
        self._load_transmission()
        tm = {
            "T": self.T, "message": len(self.delivered) + 1,
            "blocked": 0, "beta": 0, "wasted": 0, "insert_gain": 0,
            "phi_start": self._potential()[0], "theta_created": None,
            "theta_arrival": None, "result": None,
        }
        self.tm = tm
        self._blocked_unwasted = 0
        self._quiet_prev = None
        r = 1
        while r <= self.L:
            self.r_local = r
            self.g_round = (self.T - 1) * self.L + r
            self._confirmed = False   # set by a stage-1 confirmation
            self._activate_behaviors()
            self._refresh_delivery()
            self._stage1()
            self._stage2()
            self._post_round()
            if not self.auth_mode \
                    and len(self.delivered) >= self.sc.messages:
                break
            self._advance()
            r = self.r_local + 1
        self._end_transmission()

    # -- stretches of rounds that run no stage ---------------------------------
    #
    # After each executed round, `_advance` moves in one step over the
    # rounds that would change nothing a later round reads (next-event
    # time advance).  A stretch is one of two kinds:
    # - quiet: a round that leaves every field the next round reads as it
    #   found it, on the same mask as the next round, repeats itself until
    #   the mask changes or a scheduled event comes due.  Comparing
    #   `_round_state()` with the previous round's proves a round quiet.
    #   The one event flag, a confirmation, only spares taking the state
    #   in rounds that almost never repeat.
    # - empty: a slide transmission runs its full L rounds, also after the
    #   receiver has decoded its message.  Once that message is delivered
    #   and the reservoir and every buffer are empty, a round moves no
    #   packet and sets only the per-edge stage-1 registers (`H_IN`, `RR`,
    #   `H_OUT`, `sb_OUT`, `H_GP`), each from whether its edge delivers on
    #   that round's mask, so the stretch runs to round L.  Auth mode has
    #   no empty stretch: its empty rounds still move the control channel
    #   and the broadcast state.

    def _round_state(self):
        """Every field the next round reads, by value: equal states at
        the end of two rounds on one mask prove the second quiet."""
        state = [node.round_state() for node in self.nodes.values()]
        if self.auth_mode:
            state += [a.round_state() for a in self.auth.values()]
        state += [beh.round_state() for _, beh in self.corrupt_nodes.values()]
        return state

    def _fixed_point(self) -> bool:
        """Whether round r_local left the state as it found it, with round
        r_local + 1 on the same mask.  The cheap tests come first: no
        confirmation, then the mask.  Only a round that passes both has
        its state taken, and compared with the previous round's, which
        must have passed them too; that comparison decides."""
        g = self.g_round
        if self._confirmed or self.r_local + 1 >= self.L \
                or self.schedule.mask(g + 1) != self._mask:
            self._quiet_prev = None
            return False
        state = self._round_state()
        prev, self._quiet_prev = self._quiet_prev, (g, state)
        return prev == (g - 1, state)

    def _network_empty(self) -> bool:
        """Whether slide round r_local left the transmission's message
        delivered and the reservoir and every buffer empty.  The cheap
        tests come first, so auth mode and the transmission that carries
        the last message never scan the buffers."""
        if self.auth_mode or len(self.delivered) < self.tm["message"]:
            return False
        return not self.nodes[self.S].reservoir and all(
            buf.is_empty() for node in self.nodes.values()
            for buf in node.all_buffers())

    def _advance(self):
        """Advance over the stretch after round r_local, if one follows:
        to round L if the network is empty, or else, if the round was
        quiet, to just before the earliest of the next mask change, the
        receiver's end-of-transmission parcel (round L-n+1), round L and
        the next behaviour activation.  A traced quiet round's row is the
        last row renumbered; an empty round's is built from its ghost
        slots, the only registers it sets that a row reads, once for each
        distinct pattern of them in the stretch.  Round L of an empty
        stretch runs its own two stages and the receiver's drain.  The
        counters grow by the increments of the last round that ran, all
        zero in an empty network: no round inserts, and the sender holds
        no packet at stage 2."""
        r0, base = self.r_local, self.g_round - self.r_local
        empty = self._network_empty()
        if empty:
            last = self.L
        elif self._fixed_point():
            last = min([self.L, self.schedule.next_change(self.g_round) - base]
                       + [act - base for act, _ in self.corrupt_nodes.values()
                          if act > self.g_round]) - 1
            if self.auth_mode and r0 < self.L - self.n + 1:
                last = min(last, self.L - self.n)
        else:
            return
        if last <= r0:
            return
        if self.trace is not None and not empty:
            row = self._state_row
            for r in range(r0 + 1, last):
                self.trace.append(dict(row, g=base + r, r=r))
        elif self.trace is not None:
            # the receiver's drain clears its own ghost slots every round;
            # each other one is set by whether its edge is up, as a slide
            # pair delivers exactly then.  So a row depends only on the
            # mask's ghost bits: each distinct pattern sets its slots with
            # a round's own stage-1 fold and stage-2 receive, and builds
            # its (phi_nd, nodes) once, its rows sharing one `nodes`.  The
            # slots a reused row leaves stale are set again by the next
            # build and by round L.
            ghosts = [(ob, ib, 1 << self.schedule.bit[edge_key(a, b)])
                      for a, b, ob, ib, _, _, _, _ in self.channels
                      if b != self.R]
            ghost_bits = sum({bit for _, _, bit in ghosts})
            built = {}                # ghost bits up -> (phi_nd, nodes)
            for r in range(r0 + 1, last):
                self.r_local, self.g_round = r, base + r
                up = self.schedule.mask(base + r) & ghost_bits
                entry = built.get(up)
                if entry is None:
                    if len(built) >= ROWS_KEPT:
                        built.clear()
                    for ob, ib, bit in ghosts:
                        ib.fold_stage1(ob.stage1_msg() if up & bit else None)
                        ib.receive(None, r)
                    nodes = self._buffer_rows()
                    entry = built[up] = (self._potential(nodes)[0], nodes)
                self._emit_state_row(*entry)
        self.r_local, self.g_round = last, base + last
        if empty:
            self._refresh_delivery()
            self._stage1()
            self._stage2()
            self.nodes[self.R].receiver_drain(self.params, self._on_message)
        self._end_stretch(last - r0)

    def _end_stretch(self, rounds):
        """The tail of every executed round and of every advance, once
        the state is the stretch's last round's: the per-transmission
        counters grow by that round's increments times the stretch, and
        the invariant checks run once."""
        tm = self.tm
        tm["insert_gain"] += rounds * self._round_gain
        tm["blocked"] += rounds * self._round_blocked
        tm["wasted"] += rounds * self._round_wasted
        tm["beta"] += rounds * self._round_beta
        if self._round_blocked and not self._round_wasted:
            self._blocked_unwasted += rounds
        self._check_round(rounds)

    # -- stage 1 ---------------------------------------------------------------

    def _stage1(self):
        r, T, auth_mode = self.r_local, self.T, self.auth_mode
        if auth_mode:
            self._broadcast_control()
        delivery = self._delivery
        behavior = self._behavior
        sent = []                     # per channel: (advert, reply), each
                                      # None unless its direction delivers
        for a, b, ob, ib, _, auth_b, ab, ba in self.channels:
            advert = ob.stage1_msg() if delivery[ab] else None
            reply = None
            if delivery[ba]:
                height = ib.H
                if behavior[b] is not None:
                    height = behavior[b].stage1_reply_height(ib, height)
                if auth_mode:
                    reply = auth_b.build_stage1_reply(ib, T, r, height=height)
                else:
                    reply = (height, ib.RR)
            sent.append((advert, reply))

        for (a, b, ob, ib, auth_a, _, _, _), (advert, reply) in zip(
                self.channels, sent):
            # advert a -> b
            ib.fold_stage1(advert)
            # reply b -> a, then reset outgoing variables
            signed = None
            if reply is not None and auth_mode:
                signed = reply
                reply = auth_a.verify_stage1_reply(ob, signed, T, r)
            confirmed, height, slide = ob.fold_reply(reply)
            if confirmed is not None:
                self._confirmed = True
                if auth_mode:
                    auth_a.sync_on_confirm(ob, signed, height, slide, T, r)
                    self._check_ledger_pairing(a, b)
                if a == self.S:
                    self.nodes[a].note_confirmed()
                if behavior[a] is not None:
                    behavior[a].after_forward(ob, confirmed)
                self._emit("confirm", e=[a, b], h=height)

    def _broadcast_control(self):
        """Stage 1's control channel: every ordered pair passes its cbp
        bit and request; an undelivered pair's arrive as (0, None)."""
        msgs = [(ax.take_cbp(y), ax.make_request(y)) if delivered
                else (0, None) for (_, y, ax, _), delivered
                in zip(self.all_pairs, self._delivery)]
        for (x, _, _, ay), (cbp, alpha) in zip(self.all_pairs, msgs):
            ay.on_cbp(x, cbp)
            ay.on_request(x, alpha)

    def _check_ledger_pairing(self, a, b):
        """After a confirmation the two ledgers for edge (a,b) agree
        exactly; asserted for honest pairs when checks are on."""
        if self.sc.checks == "off":
            return
        if not (self._is_honest(a) and self._is_honest(b)):
            return
        la = self.auth[a].out_led[b]
        lb = self.auth[b].in_led[a]
        # the per-packet counts: `LedgerPairing` keeps how many differ
        if la.sig1.value != lb.sig1.value or la.sig2.value != lb.sig3.value \
                or la.sig3.value != lb.sig2.value or la.pair.mismatched:
            raise InvariantError(
                f"ledger mismatch on edge ({a},{b}) after confirmation")

    # -- stage 2 -----------------------------------------------------------------

    def _stage2(self):
        r, T, auth_mode = self.r_local, self.T, self.auth_mode
        self._round_wasted = False
        if auth_mode:
            self._broadcast_parcels()
            self._count_wasted()
        behavior = self._behavior
        sends = [None] * len(self.channels)
        s_had_packets = any(ob.H > 0
                            for ob in self.nodes[self.S].out_buffers.values())
        for i, (a, b, ob, _, auth_a, _, _, _) in enumerate(self.channels):
            if ob.H_IN is None:
                continue
            ob.create_flag(r)
            if not ob.should_send():
                continue
            ob.mark_sent()
            beh = behavior[a]
            if auth_mode:
                if a == self.S and auth_a.halted:
                    continue
                gate_ok = (beh is not None) or auth_a.okay_to_send(b)
                if not gate_ok:
                    continue
                substitute = beh.substitute_send(ob) if beh else None
                sends[i] = auth_a.build_packet_msg(ob, T, r,
                                                   stored=substitute)
            else:
                sends[i] = (ob.p_tilde, ob.FR)

        insert_gain = 0
        inserted = False
        for (a, b, ob, ib, _, auth_b, ab, _), msg in zip(self.channels, sends):
            if not self._delivery[ab]:
                msg = None
            parsed = msg
            blocked = False
            if auth_mode:
                blocked = behavior[b] is None \
                    and not auth_b.okay_to_receive(a)
                if msg is not None:
                    parsed = auth_b.verify_packet_msg(ib, msg, T, r)
            res = ib.receive(parsed, r, blocked=blocked)
            if res[0] == "accept":
                _, stored, land = res
                if auth_mode:
                    auth_b.sync_on_accept(ib, msg, stored, land, T, r)
                ob.note_accepted(parsed[1])
                if a == self.S:
                    inserted = True
                    if b != self.R:
                        insert_gain += land
                self._emit("accept", e=[a, b], h=land,
                           p=list(stored.packet.label()))
                if behavior[b] is not None \
                        and not behavior[b].after_accept(ib, stored, land):
                    ib.discard(land)
            elif res[0] == "dup" or res[0] == "idle":
                if auth_mode and res[1]:
                    auth_b.add_local_drop(res[1])
        self._round_blocked = not inserted and s_had_packets
        self._round_gain = insert_gain

    def _broadcast_parcels(self):
        r, T = self.r_local, self.T
        chosen = []                   # in pair order: (x, y, auth_y, hop)
        for (x, y, ax, ay), delivered in zip(self.all_pairs, self._delivery):
            if not delivered:
                continue
            parcel = ax.choose_parcel(y)
            if parcel is not None:
                chosen.append((x, y, ay, ax.wrap_hop(parcel, T, r)))
        events = []
        for x, y, ay, hop in chosen:
            for ev in ay.on_parcel(x, hop, T, r):
                events.append((y, ev))
        for y, ev in events:
            if ev[0] == "wipe":
                self._wipe_buffers(y)
            elif ev[0] == "theta":
                self.tm["theta_arrival"] = self.r_local
            elif ev[0] == "eliminate":
                self._eliminate(ev[1], f"malformed-report: {ev[2]}",
                                "malformed-report")
            elif ev[0] == "localize":
                self._localize(ev[1])

    def _wipe_buffers(self, node_id):
        for buf in self.nodes[node_id].all_buffers():
            buf.reset()

    def _eliminate(self, node, inequality, kind, margin=0):
        sender = self.auth[self.S]
        if sender.halted:
            return
        if self._is_honest(node):
            raise InvariantError(
                f"honest node {node} eliminated: {inequality}")
        sender.eliminate(node, self.T)
        self.eliminations.append({
            "T": self.T, "round": self.r_local, "node": node,
            "kind": kind, "inequality": inequality, "margin": margin,
        })
        self._emit("eliminate", node=node, verdict=kind)

    def _localize(self, failed_T):
        sender = self.auth[self.S]
        if sender.halted:
            return
        verdict = run_localization(build_report_set(sender, failed_T, self.n),
                                   self.ring)
        self._eliminate(verdict.node, verdict.inequality, verdict.kind,
                        verdict.margin)

    def _count_wasted(self):
        path = find_honest_path(self.schedule, self.g_round,
                                self._corrupt_ids, self.S, self.R)
        for u, v in zip(path, path[1:]):
            if not self.auth[u].okay_to_send(v) \
                    or not self.auth[v].okay_to_receive(u):
                self._round_wasted = True
                return

    # -- post-round ---------------------------------------------------------------

    def _post_round(self):
        self._round_beta = False
        for i in self.ids:
            node = self.nodes[i]
            if node.role == INTERNAL:
                if self.auth_mode and not self.auth[i].sot_complete():
                    continue
                drop = node.reshuffle()
                if self.auth_mode:
                    self.auth[i].add_local_drop(drop)
            elif node.role == RECEIVER:
                if self.auth_mode and not self.auth[i].sot_complete():
                    continue
                node.receiver_drain(self.params, self._on_message)
            else:
                node.sender_refill()
                # keep every outgoing buffer supplied once the reservoir
                # runs dry, so packets never strand on a dead edge while an
                # active edge starves (the insertion-rate bound relies on it)
                node.sender_redistribute()
                node.reshuffle()
                if self.auth_mode:
                    vals = [ob.H_IN for ob in node.out_buffers.values()
                            if ob.H_IN is not None]
                    if all(v == 2 * self.n for v in vals):
                        self._round_beta = True

        if self.auth_mode and self.r_local == self.L - self.n + 1:
            rnode = self.nodes[self.R]
            self.auth[self.R].queue_theta(rnode.decoded,
                                          rnode.duplicate_label, self.T)
            self.tm["theta_created"] = self.r_local
            self._emit("theta", decoded=rnode.decoded)

        self._end_stretch(1)

    def _on_message(self, msg):
        if (msg.index, msg.payload) != self._copy[:2]:
            raise InvariantError(
                f"receiver output out of order or corrupted at message "
                f"{msg.index}")
        self.delivered.append((msg.index, self.g_round, self.T))
        self._emit("deliver", m=msg.index)

    # -- metrics / invariant checking ------------------------------------------------

    def _potential(self, nodes=None):
        """Current (non-duplicated, duplication) network potential, over
        every internal node's buffers.  `nodes`, when given, is
        `_buffer_rows()`."""
        if nodes is None:
            return network_potential([buf.row() for i in self._internal
                                      for buf in self.nodes[i].all_buffers()])
        return network_potential([row for i in self._internal
                                  for row in nodes[str(i)]])

    def _check_round(self, rounds):
        """The invariant checks of the last `rounds` rounds, which all
        ended in the current state."""
        level = self.sc.checks
        # one pass over the heights serves the packet high-water marks and
        # the balance checks
        heights = {}
        for i, node in self.nodes.items():
            h = heights[i] = [b.H for b in node.all_buffers()]
            total = sum(h)
            if total > self.max_packets[i]:
                self.max_packets[i] = total
            if self.auth_mode:
                self.auth[i].note_watermarks()
        if level == "off" and self.trace is None:
            return
        honest_run = not self.corrupt_nodes
        # one row pass serves both the potential and the state row; only
        # an honest run's checks and the trace read the potential
        nodes = self._buffer_rows() if self.trace is not None else None
        phi_nd = None
        if honest_run or nodes is not None:
            phi_nd, phi_dup = self._potential(nodes)
        if level != "off":
            for i in self.ids:
                if self._is_honest(i):
                    if not (self.auth_mode
                            and not self.auth[i].sot_complete()):
                        self.nodes[i].check_invariants(heights[i])
            if honest_run:
                prev = self._phi_prev
                if prev is not None and phi_nd - prev > self._round_gain:
                    raise InvariantError(
                        f"non-duplicated potential rose by {phi_nd - prev} "
                        f"with insertions only {self._round_gain} in round "
                        f"{self.g_round}")
                bound = 2 * self.n**3 - 8 * self.n**2 + 8 * self.n
                if not 0 <= phi_dup <= bound:
                    raise InvariantError(
                        f"duplication potential {phi_dup} outside "
                        f"[0, {bound}]")
            # every 8th round: does the stretch hold a multiple of 8?
            if honest_run and not self.auth_mode \
                    and self.r_local // 8 != (self.r_local - rounds) // 8:
                self._check_conservation()
        self._phi_prev = phi_nd
        if nodes is not None:
            self._emit_state_row(phi_nd, nodes)

    def _buffer_rows(self):
        """A state row's `nodes`: each node id, as a string, -> its
        buffers' `row()`s."""
        return {str(i): [buf.row() for buf in self.nodes[i].all_buffers()]
                for i in self.ids}

    def _emit_state_row(self, phi_nd, nodes):
        self._state_row = {
            "k": "state", "g": self.g_round, "T": self.T, "r": self.r_local,
            "gain": self._round_gain, "blocked": int(self._round_blocked),
            "wasted": int(self._round_wasted), "nd": phi_nd, "nodes": nodes,
        }
        self.trace.append(self._state_row)

    def _check_conservation(self):
        """Every live packet of the current codeword exists in at most one
        non-flagged copy network-wide."""
        counts = {}
        for node in self.nodes.values():
            if node.role == SENDER:
                continue
            for buf in node.all_buffers():
                for h, item in enumerate(buf.slots, 1):
                    if item is not None and (buf.kind == "in"
                                             or h != buf.H_FP):
                        label = item.packet.label()
                        counts[label] = counts.get(label, 0) + 1
        bad = [lab for lab, c in counts.items() if c > 1]
        if bad:
            raise InvariantError(f"duplicated live packets: {bad[:3]}")

    # -- transmission boundary ----------------------------------------------------------

    def _end_transmission(self):
        tm = self.tm
        phi_end = self._potential()[0]
        tm["phi_end"] = phi_end
        drop = tm["phi_start"] + tm["insert_gain"] - phi_end
        tm["potential_drop"] = drop
        tm["kappa"] = self.nodes[self.S].kappa
        if not self.corrupt_nodes and self.sc.checks != "off":
            need = self.n * self._blocked_unwasted
            if drop < need:
                raise InvariantError(
                    f"transmission {self.T}: potential drop {drop} below "
                    f"n*blocked = {need}")

        if self.auth_mode:
            sender = self.auth[self.S]
            if not sender.halted:
                tm["blacklist_before"] = sorted(sender.bl)
                reason, participants = sender.prepare_sot(
                    self.nodes[self.S].kappa, self.D)
                tm["result"] = "ok" if reason == REASON_OK else reason[0]
                tm["participants"] = participants
                if reason != REASON_OK:
                    self._emit("failed", reason=reason[0])
            else:
                tm["result"] = "eliminated"
            for auth in self.auth.values():
                auth.end_of_transmission()
        else:
            tm["result"] = "ok"
            if self.sc.checks != "off" \
                    and len(self.delivered) < min(self.sc.messages, self.T):
                raise InvariantError(
                    f"message {self.T} not delivered within its "
                    f"transmission")
        for node in self.nodes.values():
            node.end_of_transmission_adjust()
        self.transmissions.append(tm)
        if self.trace is not None:
            self.trace.append({"k": "endT", "T": self.T,
                               "result": tm["result"]})

    # -- report -----------------------------------------------------------------------

    def _report(self) -> dict:
        sc = self.sc
        report = {
            "scenario_digest": sc.digest(),
            "params": {
                "n": self.n, "D": self.D,
                "decode_threshold": self.params.decode_threshold,
                "transmission_rounds": self.L,
                "mode": sc.mode,
            },
            "messages_requested": sc.messages,
            "delivered": [
                {"message": m, "round": r, "T": t}
                for m, r, t in self.delivered
            ],
            "transmissions": self.transmissions,
            "failures": [t["T"] for t in self.transmissions
                         if t["result"] not in ("ok", None)],
            "eliminations": self.eliminations,
            "max_packets_per_node": {str(k): v
                                     for k, v in self.max_packets.items()},
        }
        if self.auth_mode:
            report["memory"] = {
                str(i): {
                    "broadcast_buffer": self.auth[i].max_bb,
                    "data_buffer": self.auth[i].max_db,
                    "sig_entries_per_edge": self.auth[i].max_sig_entries,
                } for i in self.ids
            }
        return report


def run_scenario(scenario: Scenario, trace=None):
    engine = Engine(scenario, trace=trace)
    report = engine.run()
    return report, engine
