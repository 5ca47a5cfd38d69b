"""Sender-side fault localization from complete status reports.

Given every participant's signed per-edge ledger values for a failed
transmission, the audits below either find a self- or pairwise-inconsistent
report (eliminating its author) or evaluate the incrimination inequality
for the recorded failure reason, which provably singles out a corrupt node:

* potential audit: a node whose signed potential decrease exceeds its
  starting potential plus its claimed increase duplicated packets;
* net-flow audit: a node that absorbed more packets than its buffers hold
  deleted packets;
* per-packet audit: a node that emitted one packet more often than it
  received it duplicated that packet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .auth import STATEMENTS, LedgerEntry, is_statement


class LocalizationError(RuntimeError):
    """Complete reports failed to produce a verdict; with honest audits
    this contradicts the failure classification and is a simulator bug or
    a hand-built inconsistent report set."""


@dataclass
class NodeReport:
    node: object
    sig_nn: Optional[LedgerEntry] = None
    out_edges: dict = field(default_factory=dict)   # peer -> {field: LedgerEntry}
    in_edges: dict = field(default_factory=dict)

    def out_val(self, peer, name) -> int:
        rv = self.out_edges.get(peer, {}).get(name)
        return rv.value if rv else 0

    def in_val(self, peer, name) -> int:
        rv = self.in_edges.get(peer, {}).get(name)
        return rv.value if rv else 0


@dataclass
class StatusReportSet:
    failed_T: int
    reason: tuple
    n: int
    sender: object
    receiver: object
    participants: list
    eliminated: frozenset
    reports: dict = field(default_factory=dict)     # node -> NodeReport


@dataclass(frozen=True)
class Verdict:
    node: object
    kind: str             # malformed-report | pairwise-inconsistency |
                          # F2-potential | F3-flow | F4-duplication
    inequality: str
    margin: int = 0


def build_report_set(sender, failed_T, n) -> StatusReportSet:
    """The localization input for `sender`'s failed transmission
    `failed_T`: every participant's report, from the status parcels the
    sender collected, and the sender's own archived out-ledgers."""
    record = sender.failure_records[failed_T]
    rs = StatusReportSet(
        failed_T=failed_T, reason=record["reason"], n=n,
        sender=sender.node_id, receiver=sender.receiver_id,
        participants=list(record["participants"]),
        eliminated=frozenset(sender.en))
    for node in record["participants"]:
        if node == sender.node_id:
            parts = record["own"]
        else:
            parts = {part: signed.value.payload for part, signed
                     in sender.reports[(node, failed_T)].items()}
        rep = rs.reports[node] = NodeReport(node)
        for part, payload in sorted(parts.items()):
            for side, name, _, value, sT, sr, evidence in payload:
                entry = LedgerEntry(value, (sT, sr), evidence)
                if side == "self":
                    rep.sig_nn = entry
                else:
                    target = rep.out_edges if side == "out" else rep.in_edges
                    target.setdefault(part[1], {})[name] = entry
    return rs


# ---------------------------------------------------------------------------
# evidence checking
# ---------------------------------------------------------------------------

def _evidence_ok(rv: LedgerEntry, side: str, name: str, counterpart, ring,
                 failed_T, label=None) -> bool:
    """A nonzero counterpart-attributed value must carry the counterpart's
    genuine signed statement containing exactly that value and stamp."""
    if name == "sig3":
        return rv.value >= 0
    if rv.evidence is None:
        return rv.value == 0
    ev = rv.evidence
    if not ring.verify_as(ev, counterpart):
        return False
    v = ev.value
    tag = "s1" if side == "out" else "s2"
    if not is_statement(v, tag):
        return False
    if (v[1], v[2]) != rv.stamp or v[1] != failed_T:
        return False
    want = (label, rv.value) if name == "sigp" else rv.value
    return v[getattr(STATEMENTS[tag], name)] == want


def _iter_values(report: NodeReport):
    for peer, fields in sorted(report.out_edges.items()):
        for name, rv in sorted(fields.items()):
            yield "out", peer, name, rv
    for peer, fields in sorted(report.in_edges.items()):
        for name, rv in sorted(fields.items()):
            yield "in", peer, name, rv


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def audit_consistency(rs: StatusReportSet, ring) -> Optional[Verdict]:
    """Per-report sanity and pairwise signed-value consistency.  Returns
    the first (deterministically ordered) verdict, or None if all reports
    cohere."""
    n = rs.n
    label = rs.reason[1] if rs.reason[0] == "f4" else None

    for node in sorted(rs.reports):
        rep = rs.reports[node]
        for side, peer, name, rv in _iter_values(rep):
            if rv.value < 0:
                return Verdict(node, "malformed-report",
                               f"node {node} reported {side} {name} toward "
                               f"{peer} = {rv.value} < 0")
            if peer in rs.eliminated and rv.value != 0:
                return Verdict(node, "malformed-report",
                               f"node {node} reported traffic with "
                               f"eliminated node {peer}")
            if not _evidence_ok(rv, side, name, peer, ring, rs.failed_T,
                                label):
                return Verdict(node, "malformed-report",
                               f"node {node} reported {side} {name} toward "
                               f"{peer} = {rv.value} without a matching "
                               f"signed statement")
        if rep.sig_nn is not None and rep.sig_nn.value < 0:
            return Verdict(node, "malformed-report",
                           f"node {node} reported re-shuffle ledger "
                           f"{rep.sig_nn.value} < 0")
        # per-edge potential sanity: a transfer drops potential, so the
        # recorded decrease dominates the paired increase on every edge
        for peer in sorted(rep.out_edges):
            if {"sig2", "sig3"} <= rep.out_edges[peer].keys():
                if rep.out_val(peer, "sig3") < rep.out_val(peer, "sig2"):
                    return Verdict(node, "malformed-report",
                                   f"node {node}: outgoing edge to {peer} "
                                   f"claims increase "
                                   f"{rep.out_val(peer, 'sig2')} exceeding "
                                   f"own decrease {rep.out_val(peer, 'sig3')}")
        for peer in sorted(rep.in_edges):
            if {"sig2", "sig3"} <= rep.in_edges[peer].keys():
                if rep.in_val(peer, "sig2") < rep.in_val(peer, "sig3"):
                    return Verdict(node, "malformed-report",
                                   f"node {node}: incoming edge from {peer} "
                                   f"claims increase "
                                   f"{rep.in_val(peer, 'sig3')} exceeding "
                                   f"{peer}'s signed decrease "
                                   f"{rep.in_val(peer, 'sig2')}")

    # pairwise checks over both directions of every edge
    cap = 2 * n
    for a in sorted(rs.reports):
        ra = rs.reports[a]
        for b in sorted(rs.reports):
            if a == b:
                continue
            rb = rs.reports[b]
            # the receiver of edge (a->b) can hold a signed potential-drop
            # claim at most 2n beyond what a admits having signed
            if "sig2" in rb.in_edges.get(a, {}) and \
                    "sig3" in ra.out_edges.get(b, {}):
                lhs = rb.in_val(a, "sig2")
                rhs = ra.out_val(b, "sig3")
                if lhs > rhs + cap:
                    return Verdict(a, "pairwise-inconsistency",
                                   f"{b} holds {a}-signed potential drop "
                                   f"{lhs} > {rhs} + 2n = {rhs + cap} "
                                   f"admitted by {a}")
            # claimed increases from the sender's insertions are bounded by
            # the sender's own record plus one in-flight packet
            if a == rs.sender and "sig2" in ra.out_edges.get(b, {}) and \
                    "sig3" in rb.in_edges.get(a, {}):
                lhs = rb.in_val(a, "sig3")
                rhs = ra.out_val(b, "sig2")
                if lhs - rhs > cap:
                    return Verdict(b, "pairwise-inconsistency",
                                   f"{b} claims potential gain {lhs} from "
                                   f"the sender, exceeding the sender's "
                                   f"record {rhs} by more than 2n = {cap}")
            # net packet counters across one edge differ by at most the one
            # in-flight packet; blame follows the staler round stamp
            fa = ra.out_edges.get(b, {}).get("sig1")
            fb = rb.in_edges.get(a, {}).get("sig1")
            if fa is not None and fb is not None and abs(fa.value - fb.value) > 1:
                blame = b if fa.stamp[1] > fb.stamp[1] else a
                return Verdict(blame, "pairwise-inconsistency",
                               f"edge ({a}->{b}): {a} reports net flow "
                               f"{fa.value} at round {fa.stamp[1]}, {b} "
                               f"reports {fb.value} at round {fb.stamp[1]}; "
                               f"|{fa.value} - {fb.value}| > 1")
    return None


def _select(verdicts) -> Optional[Verdict]:
    """The verdict of the largest positive margin, the lowest node's
    among equal margins; None if no margin is positive."""
    return min((v for v in verdicts if v.margin > 0),
               key=lambda v: (-v.margin, v.node), default=None)


def localize_f2(rs: StatusReportSet) -> Optional[Verdict]:
    """Find a node whose documented potential decrease exceeds the largest
    amount honest behavior could produce: starting potential (< 4n^3-4n^2)
    plus its own claimed increases."""
    n = rs.n
    bound = 4 * n**3 - 4 * n**2
    verdicts = []
    for a in sorted(set(rs.reports) - {rs.sender}):
        ra = rs.reports[a]
        increase = sum(ra.in_val(b, "sig3") for b in ra.in_edges)
        sig_nn = ra.sig_nn.value if ra.sig_nn else 0
        decrease = sig_nn + sum(rb.in_val(a, "sig2")
                                for b, rb in rs.reports.items() if b != a)
        verdicts.append(Verdict(
            a, "F2-potential",
            f"4n^3-4n^2 + sum_B SIG^{a}[3][B->{a}] < "
            f"SIG_{a},{a} + sum_B SIG^B[2][{a}->B]: "
            f"{bound} + {increase} < {sig_nn} + {decrease - sig_nn}",
            decrease - (bound + increase)))
    return _select(verdicts)


def localize_f3(rs: StatusReportSet) -> Optional[Verdict]:
    """Find an internal node that absorbed more packets than its buffer
    capacity 2(n-2)*2n explains."""
    n = rs.n
    cap = 4 * n**2 - 8 * n
    verdicts = []
    for a in sorted(set(rs.reports) - {rs.sender, rs.receiver}):
        ra = rs.reports[a]
        inflow = sum(ra.in_val(b, "sig1") for b in ra.in_edges)
        outflow = sum(ra.out_val(b, "sig1") for b in ra.out_edges)
        verdicts.append(Verdict(
            a, "F3-flow",
            f"sum_B (SIG^{a}[1][B->{a}] - SIG^{a}[1][{a}->B]) "
            f"= {inflow} - {outflow} > 4n^2-8n = {cap}",
            (inflow - outflow) - cap))
    return _select(verdicts)


def localize_f4(rs: StatusReportSet) -> Optional[Verdict]:
    """Find an internal node that emitted the duplicated packet more often
    than it received it, counting emissions as recorded by the receiving
    neighbors."""
    verdicts = []
    for a in sorted(set(rs.reports) - {rs.sender, rs.receiver}):
        ra = rs.reports[a]
        output = sum(rb.in_val(a, "sigp")
                     for b, rb in rs.reports.items() if b != a)
        inflow = sum(ra.in_val(b, "sigp") for b in ra.in_edges)
        verdicts.append(Verdict(
            a, "F4-duplication",
            f"sum_B (SIG^B[p][{a}->B] - SIG^{a}[p][B->{a}]) "
            f"= {output} - {inflow} >= 1", output - inflow))
    return _select(verdicts)


_LOCALIZERS = {"f2": localize_f2, "f3": localize_f3, "f4": localize_f4}


def run_localization(rs: StatusReportSet, ring) -> Verdict:
    """Full pipeline: consistency audit first, then the reason-specific
    incrimination inequality.  Complete reports must yield a verdict."""
    verdict = audit_consistency(rs, ring)
    if verdict is not None:
        return verdict
    verdict = _LOCALIZERS[rs.reason[0]](rs)
    if verdict is None:
        raise LocalizationError(
            f"complete reports for transmission {rs.failed_T} "
            f"(reason {rs.reason[0]}) produced no verdict")
    return verdict
