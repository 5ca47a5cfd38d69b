"""Authenticated routing extension: signature ledgers on every edge, the
broadcast subsystem (start/end-of-transmission parcels, blacklist, status
reports), packet-transfer gating, and the sender's failure lifecycle.

Every packet transfer and every receipt is a signed statement, laid out in
`STATEMENTS`, whose counters must advance in step with the counterpart's
ledger; the statements double as evidence in status reports when a
transmission fails.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields
from typing import Optional

from .buffers import Stored
from .codec import Packet
from .crypto import Signed
from .util import InvariantError, register_packer

REASON_OK = ("ok",)
REASON_F2 = ("f2",)
REASON_F3 = ("f3",)


def reason_f4(label):
    return ("f4", label)


def classify_failure(kappa: int, packets_per_codeword: int, theta) -> tuple:
    """Failure trichotomy from the end-of-transmission parcel and the
    sender's insertion count: success; duplicate seen at the receiver;
    too few insertions; otherwise flow-deficit."""
    if theta.decoded:
        return REASON_OK
    if theta.dup_label is not None:
        return reason_f4(theta.dup_label)
    if kappa < packets_per_codeword:
        return REASON_F2
    return REASON_F3


# the ledger fields a status report holds for each kind of failure; "sigp"
# is the per-packet entry at the duplicated packet's label
REPORT_FIELDS = {"f2": ("sig2", "sig3"), "f3": ("sig1",), "f4": ("sigp",)}


# Signed statements by tag: length, the counters' positions as the
# counterpart's ledger names them, and the (position, type) of each field a
# verifier computes with.  s1, a receiver's stage-1 reply: ("s1", T, r,
# height, round_received, sig1, sig3, sigp); s2, a transfer: ("s2", T, r,
# packet, FR, sig1, sig2, sig3, sigp); a broadcast hop: ("hop", T, r, parcel).
Statement = namedtuple("Statement", "length sig1 sig2 sigp types")
STATEMENTS = {
    "s1": Statement(8, 5, 6, 7, ((3, int), (4, int), (5, int), (6, int))),
    "s2": Statement(9, 5, 7, 8, ((3, Packet), (4, int), (5, int), (7, int))),
    "hop": Statement(4, None, None, None, ((3, Signed),)),
}


def is_statement(v, tag) -> bool:
    """Whether `v` has the tag and the length of a `tag` statement."""
    return isinstance(v, tuple) and len(v) == STATEMENTS[tag].length \
        and v[0] == tag


# ---------------------------------------------------------------------------
# broadcast parcels
# ---------------------------------------------------------------------------

class Parcel:
    """Base of the broadcast parcel types.  Each type names its `tag`, the
    fields that make up its broadcast-buffer key, its transfer `priority`
    (lower sends first), the `signer` it must carry ("sender",
    "receiver", or the field naming the signing node), and its
    `sot_stage`: its place in the start-of-transmission order, or None."""
    tag = None
    key_fields = ()
    priority = None
    signer = "sender"
    sot_stage = None

    def signer_id(self, sender, receiver):
        if self.signer == "sender":
            return sender
        if self.signer == "receiver":
            return receiver
        return getattr(self, self.signer)


register_packer(Parcel, lambda p: ("~" + p.tag,
                                   *(getattr(p, f.name) for f in fields(p))))


def parcel_key(p):
    return (p.tag, *(getattr(p, name) for name in p.key_fields))


def expected_parts(ids, origin, reason, eliminated):
    """The parts of `origin`'s status report for a failure of kind
    `reason`: one per surviving peer, plus its own re-shuffle ledger
    after an F2 failure."""
    parts = [("edge", p) for p in ids if p != origin and p not in eliminated]
    if reason[0] == "f2":
        parts.append(("self",))
    return parts


@dataclass(frozen=True)
class Theta(Parcel):
    """Receiver's end-of-transmission parcel: decode bit plus the label of
    a packet received twice, if any."""
    tag, key_fields, priority = "theta", ("T",), (0, 0)
    signer = "receiver"
    decoded: bool
    dup_label: object
    T: int


@dataclass(frozen=True)
class Omega(Parcel):
    """First start-of-transmission parcel: how many elimination, failure
    reason, and blacklist parcels follow, plus the previous outcome."""
    tag, key_fields, priority, sot_stage = "omega", ("T",), (1, 0), 0
    en_count: int
    bl_count: int
    f_count: int
    reason: tuple
    T: int


@dataclass(frozen=True)
class ElimParcel(Parcel):
    tag, key_fields, priority, sot_stage = "elim", ("node", "T"), (1, 1), 1
    node: object
    T: int


@dataclass(frozen=True)
class ReasonParcel(Parcel):
    tag, key_fields, priority = "reason", ("failed_T", "T"), (1, 2)
    sot_stage = 2
    failed_T: int
    reason: tuple
    T: int


@dataclass(frozen=True)
class BlacklistParcel(Parcel):
    tag, key_fields, priority = "bl", ("node", "failed_T", "T"), (1, 3)
    sot_stage = 3
    node: object
    failed_T: int
    T: int


@dataclass(frozen=True)
class RemoveParcel(Parcel):
    tag, key_fields, priority = "rm", ("node", "T"), (2, 0)
    node: object
    T: int


@dataclass(frozen=True)
class KnowledgeParcel(Parcel):
    tag, key_fields, priority = ("know", ("claimant", "target", "failed_T"),
                                 (3, 0))
    signer = "claimant"
    claimant: object
    target: object
    failed_T: int


@dataclass(frozen=True)
class StatusParcel(Parcel):
    """One slice of a node's status report: the signed ledger values for
    both directions of the edge pair with one neighbor (or the node's own
    re-shuffle ledger).  payload is a tuple of the records
    `EdgeLedger.records` makes."""
    tag, key_fields, priority = ("status", ("origin", "failed_T", "part"),
                                 (5, 0))
    signer = "origin"
    origin: object
    failed_T: int
    reason: tuple
    part: tuple                   # ("edge", peer) or ("self",)
    payload: tuple

    def records_ok(self) -> bool:
        """Whether every record has the shape `EdgeLedger.records` makes:
        side "out" or "in" and a `REPORT_FIELDS` field in an edge part,
        "self" and "sig_nn" in the self part; int value and stamp."""
        if self.part[0] == "edge":
            sides, names = ("out", "in"), REPORT_FIELDS[self.reason[0]]
        else:
            sides, names = ("self",), ("sig_nn",)
        return isinstance(self.payload, tuple) and all(
            isinstance(rec, tuple) and len(rec) == 7 and rec[0] in sides
            and rec[1] in names and all(isinstance(x, int) for x in rec[3:6])
            for rec in self.payload)


# tags of the start-of-transmission parcels
SOT_TAGS = frozenset(cls.tag for cls in Parcel.__subclasses__()
                     if cls.sot_stage is not None)
# parcels that hold up packet transfers over a link until they have
# passed it: the current transmission's start- and end-of-transmission
# parcels, and every piece of blacklist news
GATE_TAGS_THIS_T = SOT_TAGS | {"theta"}
GATE_TAGS_ANY_T = frozenset(("rm", "know"))


# ---------------------------------------------------------------------------
# per-edge signature ledgers
# ---------------------------------------------------------------------------

class LedgerEntry:
    """A signed ledger value, its (transmission, round) stamp and its
    counterpart-signed evidence or None: in a ledger and in a report set."""

    __slots__ = ("value", "stamp", "evidence")

    def __init__(self, value=0, stamp=(0, 0), evidence=None):
        self.set(value, stamp, evidence)

    def set(self, value, stamp, evidence):
        self.value = value
        self.stamp = stamp
        self.evidence = evidence


class LedgerPairing:
    """The per-packet half of the check that an edge's two ledgers agree,
    kept on write: both ends' `sigp` entries (label -> LedgerEntry) and
    how many labels the sending end holds at a count other than the
    receiving end's (absent reads as 0).  The two ledgers share this
    record, so neither points at the other."""

    __slots__ = ("out_sigp", "in_sigp", "mismatched")

    def __init__(self, out_sigp, in_sigp):
        self.out_sigp = out_sigp
        self.in_sigp = in_sigp
        self.recount()

    def _differs(self, label) -> bool:
        out = self.out_sigp.get(label)
        if out is None:
            return False
        other = self.in_sigp.get(label)
        return out.value != (0 if other is None else other.value)

    def set(self, sigp, label, entry) -> None:
        """Write `entry` at `label` into `sigp`, one end's entries."""
        before = self._differs(label)
        sigp[label] = entry
        self.mismatched += self._differs(label) - before

    def recount(self) -> None:
        self.mismatched = sum(map(self._differs, self.out_sigp))


class EdgeLedger:
    """Running signed totals for one directed edge, from one endpoint's
    point of view.  sig1: net current-codeword packets across the edge;
    sig2: the counterpart's signed potential change; sig3: own potential
    change; sigp: per-fragment net crossings (label -> entry).  `pair`
    compares `sigp` with the counterpart's; the engine pairs the two ends
    of each edge, and until then a ledger is paired with no entries."""

    __slots__ = ("sig1", "sig2", "sig3", "sigp", "pair")

    def __init__(self):
        self.sigp = {}
        self.pair = LedgerPairing(self.sigp, {})
        self.clear(0)

    def clear(self, T):
        self.sig1 = LedgerEntry(0, (T, 0), None)
        self.sig2 = LedgerEntry(0, (T, 0), None)
        self.sig3 = LedgerEntry(0, (T, 0), None)
        # in place: the pairing holds this dict
        self.sigp.clear()
        self.pair.recount()

    def set_sigp(self, label, value, stamp, evidence) -> None:
        self.pair.set(self.sigp, label, LedgerEntry(value, stamp, evidence))

    def sigp_value(self, label) -> int:
        entry = self.sigp.get(label)
        return 0 if entry is None else entry.value

    def entries(self) -> int:
        return 3 + len(self.sigp)

    def next_counts(self, stored) -> tuple:
        """(sig1, sigp) after one more crossing of `stored`: a fresh copy
        advances both counts, a stale copy or none advances neither."""
        if stored is not None and stored.fresh:
            label = stored.packet.label()
            return self.sig1.value + 1, (label, self.sigp_value(label) + 1)
        return self.sig1.value, None

    def adopt(self, signed, stamp, own_drop) -> None:
        """Take sig1, sig2 and a fresh copy's sigp from the counterpart's
        verified statement `signed`, as evidence stamped `stamp`, and add
        `own_drop`, unless None, to the own potential change sig3."""
        v = signed.value
        _, i1, i2, ip, _ = STATEMENTS[v[0]]
        self.sig1.set(v[i1], stamp, signed)
        self.sig2.set(v[i2], stamp, signed)
        sigp = v[ip]
        if sigp is not None:
            self.set_sigp(sigp[0], sigp[1], stamp, signed)
        if own_drop is not None:
            self.sig3.set(self.sig3.value + own_drop, stamp, None)

    def records(self, side, names, reason=None) -> list:
        """Status-report records (side, field, label, value, stamp_T,
        stamp_r, evidence) of the fields `names`, the one shape a ledger
        value takes in every report.  "sigp" is the entry at the label of
        the F4 failure `reason`; absent, it reads as 0, stamped (0, 0),
        with no evidence."""
        out = []
        for name in names:
            if name == "sigp":
                lab = reason[1]
                entry = self.sigp.get(lab, LedgerEntry())
            else:
                lab = None
                entry = getattr(self, name)
            out.append((side, name, lab, entry.value, *entry.stamp,
                        entry.evidence))
        return out


# ---------------------------------------------------------------------------
# node-level authenticated state
# ---------------------------------------------------------------------------

class AuthNode:
    """Broadcast buffer, data buffer, blacklist and ledgers for one node,
    plus the signing/verification hooks used during packet exchange."""

    def __init__(self, node_id, ring, ids, sender_id, receiver_id):
        self.node_id = node_id
        self.ring = ring
        self.key = ring.keypair(node_id)
        self.ids = sorted(ids)
        self.sender_id = sender_id
        self.receiver_id = receiver_id
        self.peers = [p for p in self.ids if p != node_id]

        self.out_led = {}
        self.in_led = {}
        if node_id != receiver_id:
            for p in self.peers:
                if p != sender_id:
                    self.out_led[p] = EdgeLedger()
        if node_id != sender_id:
            for p in self.peers:
                if p != receiver_id:
                    self.in_led[p] = EdgeLedger()
        self.sig_nn = 0
        # label of the last fresh packet accepted from each peer this
        # transmission; None before any, or after a stale one
        self.last_fresh = {p: None for p in self.in_led}

        self.bb = {}                  # parcel_key -> [Signed, passed:set]
        self._seq = 0                 # parcels added to bb
        # per peer: gating parcels in bb not yet passed to it (_gates)
        self.gating = dict.fromkeys(self.peers, 0)
        self.bl = {}                  # node -> failed transmission
        self.en = {}                  # node -> transmission eliminated
        self.claims = set()           # (claimant, target, failed_T)
        self.last_sent = {p: None for p in self.peers}
        self.cbp_out = {p: 0 for p in self.peers}
        self.alpha_in = {p: None for p in self.peers}
        self.sot = {}                 # T -> [omega, elims, reasons, bls]
        self.current_T = 1
        self.sot_ok = False           # _sot_done(current_T) == 4
        self.reported_for = set()
        self.relaxed_verify = False   # corrupt nodes may skip delta checks
        self.report_hook = None       # corrupt nodes may forge own reports
        # high-water marks
        self.max_bb = 0
        self.max_db = 0
        self.max_sig_entries = 0
        self.sig_entries = 3          # the most entries() of any ledger

    # -- small helpers ----------------------------------------------------

    def sign(self, value) -> Signed:
        return self.ring.sign(self.key, value)

    def attach_behavior(self, beh) -> None:
        """Take on a corrupt behavior's verification and report hooks."""
        self.relaxed_verify = beh.relaxed_verify
        self.report_hook = beh.forge_report

    def queue_theta(self, decoded, dup_label, T) -> None:
        """The receiver signs its end-of-transmission parcel and queues it
        for broadcast."""
        self._add_parcel(self.sign(Theta(decoded, dup_label, T)))

    def _sot_done(self, T) -> int:
        """How many start-of-transmission stages of transmission T are
        complete, counted in order: omega, eliminations, failure reasons,
        blacklist entries."""
        st = self.sot.get(T)
        if st is None:
            return 0
        om, elims, reasons, bls = st
        if elims < om.en_count:
            return 1
        if reasons < om.f_count:
            return 2
        if bls < om.bl_count:
            return 3
        return 4

    def sot_complete(self) -> bool:
        return self.sot_ok

    def _gates(self, key) -> bool:
        """Whether the parcel `key` holds up transfers until it passes."""
        return key[0] in GATE_TAGS_ANY_T or (key[0] in GATE_TAGS_THIS_T
                                             and key[-1] == self.current_T)

    def _recount_gates(self) -> None:
        """Count `gating` afresh, after bb is rebuilt or current_T moves."""
        keys = [key for key in self.bb if self._gates(key)]
        self.gating = {p: sum(p not in self.bb[key][1] for key in keys)
                       for p in self.peers}

    def mark_passed(self, key, peer) -> None:
        """Mark the buffered parcel `key` passed over the link to `peer`."""
        passed = self.bb[key][1]
        if peer not in passed:
            passed.add(peer)
            self.gating[peer] -= self._gates(key)

    def _add_parcel(self, signed_parcel, mark_peer=None) -> bool:
        """Add a parcel to the broadcast buffer unless its key is there,
        and mark it passed to `mark_peer`.  A new gating parcel counts in
        `gating` for every peer; a new start-of-transmission parcel counts
        in `sot`: an omega opens its transmission's record, any other adds
        one to its stage.  Returns whether the parcel was new."""
        parcel = signed_parcel.value
        key = parcel_key(parcel)
        added = key not in self.bb
        if added:
            self.bb[key] = [signed_parcel, set()]
            self._seq += 1
            if self._gates(key):
                for p in self.gating:
                    self.gating[p] += 1
            stage = parcel.sot_stage
            if stage == 0:
                self.sot[parcel.T] = [parcel, 0, 0, 0]
            elif stage is not None:
                self.sot[parcel.T][stage] += 1
            self.sot_ok = self._sot_done(self.current_T) == 4
        if mark_peer is not None:
            self.mark_passed(key, mark_peer)
        return added

    def note_watermarks(self):
        self.max_bb = max(self.max_bb, len(self.bb))
        db = len(self.bl) + len(self.en) + len(self.claims)
        self.max_db = max(self.max_db, db)
        self.max_sig_entries = max(self.max_sig_entries, self.sig_entries)

    def add_local_drop(self, drop) -> None:
        """Record a potential drop made inside this node -- packets
        sliding down into a closed gap, or re-shuffle moves -- in its
        re-shuffle ledger."""
        self.sig_nn += drop

    def round_state(self):
        """The fields the next round reads: broadcast-buffer entries and
        their passed sets, the control channel, the ledgers, the last
        fresh label per peer, the start-of-transmission stages and the
        data buffer.  The broadcast
        buffer is summed up by its size, its count of additions and the
        sizes of its passed sets, which change with every entry added,
        removed or passed."""
        ledgers = tuple(
            (led.sig1.value, led.sig1.stamp, led.sig2.value, led.sig2.stamp,
             led.sig3.value, led.sig3.stamp, len(led.sigp))
            for table in (self.out_led, self.in_led)
            for led in table.values())
        return (len(self.bb), self._seq,
                sum(len(entry[1]) for entry in self.bb.values()),
                tuple(self.cbp_out.values()), tuple(self.alpha_in.values()),
                tuple(self.last_sent.values()), ledgers,
                tuple(self.last_fresh.values()), self.sig_nn,
                self._sot_done(self.current_T), len(self.bl), len(self.en),
                len(self.claims))

    # -- stage 1: signed height replies ------------------------------------

    def build_stage1_reply(self, ib, T, r, height) -> Signed:
        """The receiving side's signed s1 statement for edge E(peer, self)."""
        led = self.in_led[ib.peer]
        last = self.last_fresh[ib.peer]
        sigp = None if last is None else (last, led.sigp_value(last))
        return self.sign(("s1", T, r, height, ib.RR, led.sig1.value,
                          led.sig3.value, sigp))

    def _open(self, signed, peer, tag, T, r):
        """The value of `peer`'s `tag` statement `signed` of round (T, r),
        or None unless it is signed, shaped and typed as `STATEMENTS`
        says: a corrupt node may sign anything as itself."""
        if not self.ring.verify_as(signed, peer):
            return None
        v = signed.value
        if not is_statement(v, tag) or v[1] != T or v[2] != r:
            return None
        for pos, kind in STATEMENTS[tag].types:
            if not isinstance(v[pos], kind):
                return None
        return v

    def verify_stage1_reply(self, ob, signed, T, r):
        """Check the peer's signed stage-1 reply against our outgoing
        ledger.  Returns the (height, round-received) pair to fold, or
        None to treat the exchange as an edge failure."""
        v = self._open(signed, ob.peer, "s1", T, r)
        if v is None:
            return None
        _, _, _, h, rr, sig1, sig3, sigp = v
        if self.relaxed_verify:
            return (h, rr)
        led = self.out_led[ob.peer]
        claimed = ob.FR is not None and rr != -1 and rr >= ob.FR
        if claimed:
            if not 0 <= sig3 - led.sig2.value <= ob.H_FP:
                return None
            if (sig1, sigp) != led.next_counts(ob.p_tilde):
                return None
        elif sig1 != led.sig1.value or sig3 != led.sig2.value:
            return None
        return (h, rr)

    def sync_on_confirm(self, ob, signed, confirmed_height, slide, T,
                        r) -> None:
        """After confirmation of receipt, adopt the receiver's signed
        counters and record our own potential drop."""
        led = self.out_led[ob.peer]
        led.adopt(signed, (T, r), confirmed_height)
        self.sig_entries = max(self.sig_entries, led.entries())
        self.add_local_drop(slide)

    # -- stage 2: signed packet transfers -----------------------------------

    def build_packet_msg(self, ob, T, r, stored=None) -> Signed:
        """Wrap the flagged packet (or a substitute chosen by a corrupt
        behavior) in a signed s2 statement, laid out in `STATEMENTS`."""
        stored = ob.p_tilde if stored is None else stored
        led = self.out_led[ob.peer]
        sig1, sigp = led.next_counts(stored)
        return self.sign(("s2", T, r, stored.packet, ob.FR, sig1,
                          led.sig2.value, led.sig3.value + ob.H_FP, sigp))

    def verify_packet_msg(self, ib, signed, T, r):
        """Validate an incoming transfer; returns (Stored, flagged_round)
        or None if the transfer must be treated as undelivered."""
        v = self._open(signed, ib.peer, "s2", T, r)
        if v is None:
            return None
        _, _, _, packet, fr, sig1, _sig2own, sig3, sigp = v
        if not self.ring.verify_as(packet.sender_signature, self.sender_id):
            return None
        if packet.sender_signature.value != packet.signed_body():
            return None
        stored = Stored(packet, sigp is not None)
        if self.relaxed_verify:
            return (stored, fr)
        led = self.in_led[ib.peer]
        if sig3 - led.sig2.value < ib.landing_height():
            return None
        if (sig1, sigp) != led.next_counts(stored):
            return None
        return (stored, fr)

    def sync_on_accept(self, ib, signed, stored, land, T, r) -> None:
        led = self.in_led[ib.peer]
        led.adopt(signed, (T, r),
                  None if self.node_id == self.receiver_id else land)
        self.sig_entries = max(self.sig_entries, led.entries())
        self.last_fresh[ib.peer] = (stored.packet.label() if stored.fresh
                                    else None)

    # -- transfer gating ----------------------------------------------------

    def okay_to_transfer(self, peer) -> bool:
        """Shared clause list of Okay-to-Send / Okay-to-Receive for the
        link to `peer`: neither end eliminated or blacklisted, this
        transmission's start complete, and no gating parcel still to pass
        the link."""
        return (peer not in self.en and self.sot_ok
                and self.node_id not in self.bl and peer not in self.bl
                and not self.gating[peer])

    okay_to_send = okay_to_transfer
    okay_to_receive = okay_to_transfer

    # -- broadcast: control channel (stage 1) --------------------------------

    def make_request(self, peer) -> Optional[tuple]:
        """alpha: ask `peer` for a specific missing status report parcel."""
        if peer in self.bl:
            missing = self._missing_part(peer, self.bl[peer])
            if missing is not None:
                return (peer, self.bl[peer], missing)
        for (claimant, target, failed_T) in sorted(self.claims):
            if claimant == peer and self.bl.get(target) == failed_T:
                missing = self._missing_part(target, failed_T)
                if missing is not None:
                    return (target, failed_T, missing)
        return None

    def _missing_part(self, origin, failed_T) -> Optional[tuple]:
        reason = self._reason_for(failed_T)
        if reason is None:
            return None
        for part in expected_parts(self.ids, origin, reason, self.en):
            if ("status", origin, failed_T, part) not in self.bb:
                return part
        return None

    def _reason_for(self, failed_T) -> Optional[tuple]:
        for key, (signed, _) in self.bb.items():
            if key[0] == "reason" and key[1] == failed_T:
                return signed.value.reason
        return None

    def on_request(self, peer, alpha) -> None:
        self.alpha_in[peer] = alpha

    def take_cbp(self, peer) -> int:
        bit = self.cbp_out[peer]
        self.cbp_out[peer] = 0
        return bit

    def on_cbp(self, peer, bit) -> None:
        key = self.last_sent[peer]
        if bit == 1 and key in self.bb:
            self.mark_passed(key, peer)
        self.last_sent[peer] = None

    # -- broadcast: parcel channel (stage 2) ----------------------------------

    def choose_parcel(self, peer) -> Optional[Signed]:
        """Pick the highest-priority parcel not yet passed over the link to
        `peer`; the peer's alpha request promotes one status parcel."""
        alpha = self.alpha_in[peer]
        best = None
        best_rank = None
        # the first parcel of the best rank: bb keeps the order of addition
        for signed, passed in self.bb.values():
            if peer in passed:
                continue
            parcel = signed.value
            rank = parcel.priority
            if isinstance(parcel, StatusParcel):
                if alpha is not None and (parcel.origin, parcel.failed_T,
                                          parcel.part) == (alpha[0], alpha[1],
                                                           alpha[2]):
                    rank = (4, 0)
                elif parcel.origin not in self.bl:
                    continue
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = signed
        if best is not None:
            self.last_sent[peer] = parcel_key(best.value)
        return best

    def wrap_hop(self, signed_parcel, T, r) -> Signed:
        return self.sign(("hop", T, r, signed_parcel))

    def unwrap_hop(self, hop, peer, T, r) -> Optional[Signed]:
        """The signed parcel inside `peer`'s hop of round (T, r), or None
        unless both signatures verify and the parcel's type accepts its
        signer."""
        v = self._open(hop, peer, "hop", T, r)
        if v is None:
            return None
        inner = v[3]
        if not self.ring.verify(inner):
            return None
        parcel = inner.value
        if not isinstance(parcel, Parcel) or inner.signer != \
                parcel.signer_id(self.sender_id, self.receiver_id):
            return None
        return inner

    def on_parcel(self, peer, hop, T, r):
        """Validate and absorb a broadcast parcel arriving from `peer`.
        Returns a list of protocol events for the engine ("eliminated",
        node) when an elimination parcel wipes state, etc.
        Start-of-transmission parcels are only accepted in their stage
        order: omega, eliminations, failure reasons, blacklist entries."""
        inner = self.unwrap_hop(hop, peer, T, r)
        if inner is None:
            return []
        parcel = inner.value
        if parcel.sot_stage is not None and (
                parcel.T < self.current_T
                or self._sot_done(parcel.T) < parcel.sot_stage):
            return []
        self.cbp_out[peer] = 1
        return self._absorb(parcel, inner, peer)

    def _note_claim(self, parcel) -> None:
        if self.bl.get(parcel.target) == parcel.failed_T:
            self.claims.add((parcel.claimant, parcel.target,
                             parcel.failed_T))

    def _absorb(self, parcel, inner, peer):
        events = []
        if isinstance(parcel, Theta):
            if parcel.T == self.current_T:
                self._add_parcel(inner, mark_peer=peer)
        elif isinstance(parcel, Omega):
            added = self._add_parcel(inner, mark_peer=peer)
            if added and parcel.bl_count == 0 and parcel.T >= self.current_T:
                self._clear_sig_buffers(parcel.T)
        elif isinstance(parcel, ElimParcel):
            self._add_parcel(inner, mark_peer=peer)
            if parcel.node not in self.en:
                self.en[parcel.node] = parcel.T
                events.append(("wipe", parcel.node))
                self._clear_sig_buffers(parcel.T)
                self._wipe_for_elimination()
        elif isinstance(parcel, ReasonParcel):
            self._add_parcel(inner, mark_peer=peer)
        elif isinstance(parcel, BlacklistParcel):
            added = self._add_parcel(inner, mark_peer=peer)
            if added:
                if ("rm", parcel.node, parcel.T) not in self.bb:
                    self.bl[parcel.node] = parcel.failed_T
                self._prune_outdated(parcel.node, parcel.failed_T)
                if parcel.node == self.node_id \
                        and parcel.failed_T not in self.reported_for:
                    reason = self._reason_for(parcel.failed_T)
                    if reason is not None:
                        self._add_own_report(parcel.failed_T, reason)
                # the stage gate has required every earlier stage
                if self._sot_done(parcel.T) == 4:
                    self._clear_sig_buffers(parcel.T)
        elif isinstance(parcel, RemoveParcel):
            if parcel.T == self.current_T:
                self._add_parcel(inner, mark_peer=peer)
                if parcel.node in self.bl:
                    self._unblacklist(parcel.node)
        elif isinstance(parcel, KnowledgeParcel):
            self._note_claim(parcel)
        elif isinstance(parcel, StatusParcel):
            if self.bl.get(parcel.origin) == parcel.failed_T \
                    and self._status_shape_ok(parcel):
                added = self._add_parcel(inner, mark_peer=peer)
                if added and self._missing_part(parcel.origin,
                                                parcel.failed_T) is None:
                    know = KnowledgeParcel(self.node_id, parcel.origin,
                                           parcel.failed_T)
                    self._add_parcel(self.sign(know))
        return events

    def _status_shape_ok(self, parcel: StatusParcel) -> bool:
        reason = self._reason_for(parcel.failed_T)
        if reason is None or parcel.reason != reason:
            return False
        return parcel.part in expected_parts(self.ids, parcel.origin, reason,
                                             self.en)

    def _clear_sig_buffers(self, T) -> None:
        for ledgers in (self.out_led, self.in_led):
            for led in ledgers.values():
                led.clear(T)
        self.sig_nn = 0
        self.sig_entries = 3

    def _wipe_for_elimination(self) -> None:
        """A newly-learned elimination wipes routing state: broadcast
        buffer except start-of-transmission parcels, claims, blacklist."""
        self.bb = {key: entry for key, entry in self.bb.items()
                   if key[0] in SOT_TAGS}
        self._recount_gates()
        self.claims = set()
        self.bl = {}

    def _prune_outdated(self, node, keep_failed_T) -> None:
        """Blacklist news about `node` invalidates status data from other
        transmissions."""
        drop = []
        for key in self.bb:
            if key[0] == "status" and key[1] == node \
                    and key[2] != keep_failed_T:
                drop.append(key)
            elif key[0] == "know" and key[2] == node \
                    and key[3] != keep_failed_T:
                drop.append(key)
        for key in drop:
            del self.bb[key]
        self._recount_gates()
        self.claims = {c for c in self.claims
                       if c[1] != node or c[2] == keep_failed_T}

    def _unblacklist(self, node) -> None:
        """Take `node` off the blacklist, with all status data about it."""
        del self.bl[node]
        self._prune_outdated(node, None)

    # -- own status report ----------------------------------------------------

    def _report_payload(self, peer, reason):
        records = []
        for side, ledgers in (("out", self.out_led), ("in", self.in_led)):
            if peer in ledgers:
                records += ledgers[peer].records(
                    side, REPORT_FIELDS[reason[0]], reason)
        return tuple(records)

    def make_own_report(self, failed_T, reason):
        parcels = []
        for part in expected_parts(self.ids, self.node_id, reason, self.en):
            if part[0] == "edge":
                payload = self._report_payload(part[1], reason)
            else:
                payload = (("self", "sig_nn", None, self.sig_nn, 0, 0, None),)
            parcels.append(StatusParcel(self.node_id, failed_T, reason, part,
                                        payload))
        return parcels

    def _add_own_report(self, failed_T, reason) -> None:
        self.reported_for.add(failed_T)
        parcels = self.make_own_report(failed_T, reason)
        if self.report_hook is not None:
            parcels = self.report_hook(parcels)
        for parcel in parcels:
            self._add_parcel(self.sign(parcel))
        know = KnowledgeParcel(self.node_id, self.node_id, failed_T)
        self._add_parcel(self.sign(know))

    # -- transmission boundary --------------------------------------------------

    def end_of_transmission(self) -> None:
        """Drop this transmission's broadcast parcels and blacklist; keep
        status reports, knowledge claims, and early-arrived parcels of the
        next start-of-transmission broadcast."""
        T = self.current_T
        ended = SOT_TAGS | {"rm"}
        self.bb = {key: entry for key, entry in self.bb.items()
                   if key[0] != "theta"
                   and not (key[0] in ended and key[-1] <= T)}
        self.bl = {}
        self._next_transmission()

    def _next_transmission(self) -> None:
        """Reset the per-transmission channel state and move on to the
        next transmission."""
        self.sot.pop(self.current_T, None)
        self.alpha_in = {p: None for p in self.alpha_in}
        self.last_sent = {p: None for p in self.last_sent}
        self.cbp_out = {p: 0 for p in self.cbp_out}
        self.last_fresh = {p: None for p in self.last_fresh}
        self.current_T += 1
        self.sot_ok = self._sot_done(self.current_T) == 4
        self._recount_gates()


class SenderAuth(AuthNode):
    """The sender's side of the authenticated protocol: master blacklist
    and elimination list, start-of-transmission broadcasts, status-report
    collection, and the failure records feeding localization."""

    def __init__(self, node_id, ring, ids, sender_id, receiver_id):
        super().__init__(node_id, ring, ids, sender_id, receiver_id)
        self.halted = False
        self.theta = None
        self.failure_records = {}     # failed_T -> record dict
        self.reports = {}             # (origin, failed_T) -> {part: Signed}
        self._install_sot(1, Omega(0, 0, 0, REASON_OK, 1), [], [], [])

    # -- SOT construction -------------------------------------------------

    def _install_sot(self, T, omega, elim_nodes, reason_items, bl_items):
        """Sign and queue the start-of-transmission broadcast, which
        `_add_parcel` also records in our own SOT state, so the
        completeness predicates hold."""
        self._add_parcel(self.sign(omega))
        for node in sorted(elim_nodes):
            self._add_parcel(self.sign(ElimParcel(node, T)))
        for failed_T, reason in sorted(reason_items):
            self._add_parcel(self.sign(ReasonParcel(failed_T, reason, T)))
        for node, failed_T in sorted(bl_items):
            self._add_parcel(self.sign(BlacklistParcel(node, failed_T, T)))

    def prepare_sot(self, kappa: int, packets_per_codeword: int) -> tuple:
        """End-of-transmission processing: classify the outcome, blacklist
        participants of a failure, archive own evidence, and queue the next
        start-of-transmission broadcast.  Returns (reason, participants)."""
        T = self.current_T
        if self.theta is None or self.theta.T != T:
            raise InvariantError(f"transmission {T}: end-of-transmission "
                                 f"parcel never reached the sender")
        reason = classify_failure(kappa, packets_per_codeword, self.theta)
        participants = [i for i in self.ids
                        if i not in self.en and i not in self.bl]
        if reason != REASON_OK:
            names = ("sig1", "sig2", "sig3") + (
                ("sigp",) if reason[0] == "f4" else ())
            self.failure_records[T] = {
                "reason": reason,
                "participants": participants,
                "own": {("edge", peer): led.records("out", names, reason)
                        for peer, led in sorted(self.out_led.items())},
            }
            for node in participants:
                if node != self.node_id:
                    self.bl[node] = T
        self._restart_broadcast(T, reason)
        return reason, participants

    def eliminate(self, node, T) -> None:
        """Permanently remove a node: wipe collected state, reset failure
        accounting, and queue a fresh start-of-transmission broadcast."""
        self.en[node] = T
        self.bl = {}
        self.claims = set()
        self.reports = {}
        self.failure_records = {}
        self.halted = True
        self._restart_broadcast(T, REASON_OK)

    def _restart_broadcast(self, T, reason) -> None:
        """Clear the ledgers, the re-shuffle total and the broadcast
        buffer, then queue the start-of-transmission broadcast of
        transmission T + 1, which follows an outcome `reason`."""
        self._clear_sig_buffers(T + 1)
        self.bb = {}
        self._recount_gates()
        self._seq = 0
        self.theta = None
        omega = Omega(len(self.en), len(self.bl), len(self.failure_records),
                      reason, T + 1)
        reason_items = [(fT, rec["reason"])
                        for fT, rec in sorted(self.failure_records.items())]
        self._install_sot(T + 1, omega, sorted(self.en), reason_items,
                          sorted(self.bl.items()))

    # -- receiving broadcast parcels ---------------------------------------

    def on_parcel(self, peer, hop, T, r):
        inner = self.unwrap_hop(hop, peer, T, r)
        if inner is None:
            return []
        parcel = inner.value
        self.cbp_out[peer] = 1
        if self.halted:
            # after eliminating a node the sender disregards everything
            # else until the next transmission begins
            return []
        events = []
        if isinstance(parcel, Theta):
            if parcel.T == self.current_T and self.theta is None:
                self.theta = parcel
                events.append(("theta",))
        elif isinstance(parcel, KnowledgeParcel):
            self._note_claim(parcel)
        elif isinstance(parcel, StatusParcel):
            events.extend(self._on_status_parcel(parcel, inner))
        return events

    def _on_status_parcel(self, parcel: StatusParcel, inner) -> list:
        origin, failed_T = parcel.origin, parcel.failed_T
        if self.bl.get(origin) != failed_T:
            return []
        record = self.failure_records.get(failed_T)
        if record is None:
            return []
        expected = expected_parts(self.ids, origin, record["reason"], self.en)
        if parcel.reason != record["reason"] or parcel.part not in expected \
                or not parcel.records_ok():
            return [("eliminate", origin,
                     f"node {origin} returned a mismatched status parcel "
                     f"for transmission {failed_T}")]
        slot = self.reports.setdefault((origin, failed_T), {})
        if parcel.part in slot:
            return []
        slot[parcel.part] = inner
        events = []
        if all(part in slot for part in expected):
            self._add_parcel(self.sign(RemoveParcel(origin, self.current_T)))
            self._unblacklist(origin)
            done = [fT for fT, rec in self.failure_records.items()
                    if all(self._report_complete(node, fT)
                           for node in rec["participants"]
                           if node != self.node_id)]
            if done:
                events.append(("localize", min(done)))
        return events

    def _report_complete(self, origin, failed_T) -> bool:
        have = self.reports.get((origin, failed_T), {})
        reason = self.failure_records[failed_T]["reason"]
        return all(part in have for part
                   in expected_parts(self.ids, origin, reason, self.en))

    def note_watermarks(self):
        """The sender's data buffer counts status-report parcels, failure
        records (participating list, reason, own archived report), the
        blacklist, eliminated list, knowledge claims, and the pending
        end-of-transmission parcel."""
        self.max_bb = max(self.max_bb, len(self.bb))
        db = (len(self.bl) + len(self.en) + len(self.claims)
              + (1 if self.theta is not None else 0)
              + sum(len(parts) for parts in self.reports.values())
              + len(self.failure_records) * (2 * len(self.ids) + 1))
        self.max_db = max(self.max_db, db)
        self.max_sig_entries = max(self.max_sig_entries, self.sig_entries)

    def round_state(self):
        return (super().round_state(), self.theta,
                sum(len(parts) for parts in self.reports.values()),
                self.halted)

    def end_of_transmission(self) -> None:
        """The sender's blacklist and broadcast buffer persist across the
        boundary; only the per-transmission channel state resets."""
        self._next_transmission()
        self.halted = False
