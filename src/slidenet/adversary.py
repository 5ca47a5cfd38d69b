"""Conforming adversary machinery: per-round edge schedules, corruption
plans, the conforming-constraint validator, and malicious node behaviors.

The edge scheduler and the node corrupter are fused into one Scenario-level
plan; the validator enforces that every round keeps an active path between
sender and receiver through nodes that are never corrupted.
"""

from __future__ import annotations

import copy
import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import Optional


class ConfigError(Exception):
    pass


def edge_key(a, b):
    return (a, b) if a < b else (b, a)


# the fewest masks a lazy schedule draws at once, so that a run asking
# round by round pays the cost of a draw call once per block
_DRAW_BLOCK = 64


class EdgeSchedule:
    """Per-round active undirected edge sets over the complete graph on n
    nodes, stored as bitmasks.  An edge active in a round is active for
    both stages of that round.

    `masks` is the pattern that repeats to cover `rounds` rounds (its own
    length by default).  An iterator given with `rounds` is instead the
    per-round masks, drawn in round order, a block at a time, when a
    question about a round not yet drawn asks.  The schedule keeps only
    the pattern, or the masks drawn so far."""

    def __init__(self, n: int, masks, rounds: Optional[int] = None):
        self.n = n
        self.edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
        self.bit = {e: i for i, e in enumerate(self.edges)}
        self.backbone = None          # a path the schedule prefers ...
        self.forced = 0               # ... and the bits set in every mask
        if isinstance(masks, Iterator) and rounds is not None:
            self._draw, self._masks = masks, []
        else:
            masks = list(masks)
            if rounds is None:
                rounds = len(masks)
            elif rounds and not masks:
                raise ConfigError("an empty schedule covers no round")
            if len(set(masks)) == 1:
                del masks[1:]         # one mask: no round changes it
            self._draw, self._masks = None, masks
        self.rounds = rounds
        self._run = (0, 0)            # last run of equal masks scanned

    def mask(self, r: int) -> int:
        """Bitmask of the edges active in round r (bit `self.bit[e]`)."""
        if r < 1 or r > self.rounds:
            raise ConfigError(f"schedule does not cover round {r}")
        masks = self._masks
        if self._draw is None:
            return masks[(r - 1) % len(masks)]
        if len(masks) < r:
            upto = min(max(r, len(masks) + _DRAW_BLOCK), self.rounds)
            masks.extend(itertools.islice(self._draw, upto - len(masks)))
            if len(masks) < r:
                raise ConfigError(f"schedule ran out of masks before "
                                  f"round {r}")
        return masks[r - 1]

    def next_change(self, r: int) -> int:
        """The first round after r whose mask differs from round r's, or
        `rounds + 1` when none does.  Scans forward from r when asked, never
        ahead of time, and remembers the run of equal masks it found, so a
        later question about a round inside that run costs nothing."""
        start, end = self._run
        if not start <= r < end:
            m = self.mask(r)
            if self._draw is None and len(self._masks) == 1:
                end = self.rounds + 1
            else:
                end = r + 1
                while end <= self.rounds and self.mask(end) == m:
                    end += 1
            self._run = (r, end)
        return end

    def first_rounds(self):
        """The first round of each distinct mask, in round order.  A lazy
        schedule is drawn as the scan reads it, _DRAW_BLOCK masks, then 16x."""
        seen, r = set(), 0
        while r < self.rounds and (self._draw is not None or not r):
            self.mask(min(self.rounds, max(16 * r, _DRAW_BLOCK)))
            for r, m in enumerate(self._masks[r:self.rounds], r + 1):
                if m not in seen:
                    seen.add(m)
                    yield r

    def active(self, r: int, a, b) -> bool:
        return bool(self.mask(r) >> self.bit[edge_key(a, b)] & 1)

    def neighbors(self, r: int, v):
        m = self.mask(r)
        out = []
        for u in range(self.n):
            if u != v and m >> self.bit[edge_key(u, v)] & 1:
                out.append(u)
        return out


def full_mask(n: int) -> int:
    return (1 << (n * (n - 1) // 2)) - 1


def edge_mask(bit: dict, edges) -> int:
    m = 0
    for a, b in edges:
        m |= 1 << bit[edge_key(a, b)]
    return m


def path_mask(bit: dict, path) -> int:
    return edge_mask(bit, zip(path, path[1:]))


def default_backbone(n: int, corrupt_nodes) -> list:
    """Lexicographically smallest honest simple path from sender (0) to
    receiver (n-1): route through the smallest never-corrupted internal
    node, or directly if none exists."""
    for mid in range(1, n - 1):
        if mid not in corrupt_nodes:
            return [0, mid, n - 1]
    return [0, n - 1]


def generate_schedule(kind: str, n: int, rounds: int, seed=0, p=0.0,
                      backbone: Optional[list] = None,
                      corrupt_nodes=(), script=None,
                      repair: bool = True) -> EdgeSchedule:
    """Build a schedule of one of three kinds.

    static: every potential edge is active every round.
    churn: each non-backbone edge toggles with probability p per round,
      then the backbone path is forced active so the schedule conforms.
      The masks are drawn as the run reaches them.
    scripted: explicit per-round edge lists, cycled to cover `rounds`,
      with the backbone forced active.

    With repair=False the backbone is not forced, so the result may
    violate the conforming constraint (callers must validate).  The
    arguments are those of a scenario that `Scenario.check()` passed.
    """
    probe = EdgeSchedule(n, [])
    if backbone is None:
        backbone = default_backbone(n, set(corrupt_nodes))
    forced = path_mask(probe.bit, backbone) if repair else 0

    if kind == "static" or (kind == "churn" and p <= 0):
        # churn that never flips an edge is the static schedule, and as a
        # pattern of one mask its next change is known without drawing
        masks = [full_mask(n)]
    elif kind == "churn":
        masks = _churn(n, seed, p, forced)
    else:
        masks = [edge_mask(probe.bit, edges) | forced for edges in script]
    sched = EdgeSchedule(n, masks, rounds)
    sched.backbone = list(backbone)
    sched.forced = forced
    return sched


def _churn(n: int, seed, p: float, forced: int):
    """Churn masks in round order, without end: every edge toggles with
    probability p, in edge order, then the forced bits are set."""
    rand = random.Random(f"churn:{seed}:{n}").random
    state = full_mask(n)
    bits = [1 << i for i in range(n * (n - 1) // 2)]
    while True:
        for b in bits:
            if rand() < p:
                state ^= b
        yield state | forced


def find_honest_path(schedule: EdgeSchedule, r: int, corrupt_nodes,
                     sender, receiver) -> Optional[list]:
    """Shortest active path from sender to receiver avoiding every node the
    plan ever corrupts; deterministic BFS with ascending neighbor order."""
    bb = schedule.backbone
    if bb:
        if all(node not in corrupt_nodes for node in bb[1:-1]) and \
                all(schedule.active(r, a, b) for a, b in zip(bb, bb[1:])):
            return list(bb)
    prev = {sender: None}
    frontier = [sender]
    while frontier:
        nxt = []
        for v in frontier:
            for u in schedule.neighbors(r, v):
                if u in prev or u in corrupt_nodes:
                    continue
                prev[u] = v
                if u == receiver:
                    path = [u]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return path[::-1]
                nxt.append(u)
        frontier = nxt
    return None


def validate_conforming(schedule: EdgeSchedule, corrupt_nodes, sender,
                        receiver) -> Optional[int]:
    """Check every round has an active sender-receiver path through nodes
    that are never corrupted; return the first round lacking one, or
    None.

    A backbone from sender to receiver whose bits are forced into every
    mask and whose nodes are honest is such a path in every round: one
    path check proves them all, and a lazy schedule stays undrawn.
    Otherwise the path search runs once per distinct mask, at its first
    round."""
    bb = schedule.backbone
    proved = bb and bb[0] == sender and bb[-1] == receiver \
        and not path_mask(schedule.bit, bb) & ~schedule.forced \
        and not any(node in corrupt_nodes for node in bb[1:-1])
    rounds = [1] if proved and schedule.rounds else schedule.first_rounds()
    for r in rounds:
        if find_honest_path(schedule, r, corrupt_nodes, sender,
                            receiver) is None:
            return r
    return None


# ---------------------------------------------------------------------------
# corrupt behaviors
# ---------------------------------------------------------------------------

class Behavior:
    """Hooks a corrupted node's behavior into the engine.  The default
    implementation is fully honest; subclasses override the few points
    where the adversary deviates.  Corrupt nodes keep their own signing
    keys but can never sign as anyone else."""

    name = "honest"
    relaxed_verify = False     # skip own delta checks on neighbors' claims

    def __init__(self):
        self.auth = None     # set once the node turns

    def attach(self, auth):
        self.auth = auth

    def round_state(self):
        """This behaviour's own state, by value."""
        return [(name, copy.copy(value)) for name, value in vars(self).items()
                if name != "auth"]

    def suppress_output(self) -> bool:
        """Ghost nodes answer nothing on any edge."""
        return False

    def stage1_reply_height(self, buf, honest_height):
        return honest_height

    def substitute_send(self, buf):
        """Return a Stored item to send in place of the flagged packet, or
        None to send honestly."""
        return None

    def after_accept(self, buf, stored, land) -> bool:
        """Called after this node accepts a packet.  Returning True keeps
        it; False silently deletes it from the buffer."""
        return True

    def after_forward(self, buf, stored) -> None:
        """Called when the peer of outgoing buffer `buf` confirms receipt
        of the flagged packet `stored`."""

    def forge_report(self, parcels):
        """Chance to replace the node's own status-report parcels."""
        return parcels


class Deleter(Behavior):
    """Accepts packets normally (signing honest receipts) and then drops
    them on the floor, leaving a net-flow deficit in its own ledgers."""

    name = "deleter"

    def after_accept(self, buf, stored, land) -> bool:
        return False


class Liar(Behavior):
    """Misreports its incoming-buffer heights as empty to attract traffic,
    then discards what it attracted."""

    name = "liar"

    def stage1_reply_height(self, buf, honest_height):
        return 0

    def after_accept(self, buf, stored, land) -> bool:
        return False


class Duplicator(Behavior):
    """Retains the first packet it handles and re-sends copies of it in
    place of every packet it should forward, jamming the network with
    duplicates."""

    name = "duplicator"
    relaxed_verify = True

    def __init__(self):
        super().__init__()
        self.retained = None

    def after_accept(self, buf, stored, land) -> bool:
        if self.retained is None:
            self.retained = stored
        return True

    def substitute_send(self, buf):
        return self.retained


class Replacer(Behavior):
    """Swaps each outgoing packet for an old packet it already forwarded,
    so net flow and potential look honest while the receiver collects
    duplicates."""

    name = "replacer"
    relaxed_verify = True

    def __init__(self):
        super().__init__()
        self.pool = []
        self._cursor = 0
        self._replaced = set()       # peers whose last send was swapped

    def after_forward(self, buf, stored) -> None:
        if buf.peer not in self._replaced:
            self.pool.append(stored)

    def substitute_send(self, buf):
        if not self.pool:
            self._replaced.discard(buf.peer)
            return None
        self._replaced.add(buf.peer)
        item = self.pool[self._cursor % len(self.pool)]
        self._cursor += 1
        return item


class Ghost(Behavior):
    """Plays dead: sends nothing on any edge in either stage."""

    name = "ghost"

    def suppress_output(self) -> bool:
        return True


class ReportForger(Behavior):
    """Deletes traffic like a deleter, then answers the sender's status
    request with stale (but genuinely signed) ledger snapshots taken early
    in the failed transmission."""

    name = "report-forger"

    def __init__(self):
        super().__init__()
        self.snapshots = {}

    def after_accept(self, buf, stored, land) -> bool:
        self.maybe_snapshot()
        return False

    def maybe_snapshot(self) -> None:
        for peer, led in self.auth.in_led.items():
            if peer not in self.snapshots and led.sig1.value > 0:
                self.snapshots[peer] = led.records("in", ("sig1",))[0]

    def forge_report(self, parcels):
        forged = []
        for parcel in parcels:
            snap = (self.snapshots.get(parcel.part[1])
                    if parcel.part[0] == "edge" else None)
            if snap is not None and parcel.reason[0] == "f3":
                # the snapshot replaces the incoming sig1 record
                parcel = replace(parcel, payload=tuple(
                    snap if rec[:2] == snap[:2] else rec
                    for rec in parcel.payload))
            forged.append(parcel)
        return forged


BEHAVIORS = {cls.name: cls for cls in
             (Behavior, Deleter, Liar, Duplicator, Replacer, Ghost,
              ReportForger)}


@dataclass
class Corruption:
    node: int
    round_index: int
    behavior: str
    params: dict = field(default_factory=dict)
