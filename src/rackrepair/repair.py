"""Trace-based single-node repair over the rack model.

A repair run produces two artifacts: a transcript of what actually crossed
rack boundaries (per helper rack, a basis of the evaluated polynomial span
and one trace residue per basis element), and a bandwidth report checking
the measured per-rack counts against the cut-set lower bound and the
applicable per-construction upper bound.

Bandwidth is a rank, so it is data independent; the payload realizes the
rank count as actual base-field symbols, which keeps the accounting
auditable: the transmitted symbol count and the rank sum are computed
separately and must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructions import CodeInstance, RepairScheme, SchemeParams, rack_wy
from .gf import FieldElement, expand_in_dual_basis, rank_over_base
from .rs import dual_weights


class RepairError(RuntimeError):
    """A repair or its audit failed; carries the transcript when there is one."""

    def __init__(self, message, transcript=None):
        super().__init__(message)
        self.transcript = transcript


@dataclass(frozen=True)
class RackMessage:
    """What one helper rack sends: b_e trace residues for a basis of the
    span of its evaluated polynomials."""

    rack: int
    basis_elems: tuple[FieldElement, ...]
    payload: tuple[int, ...]


@dataclass(frozen=True)
class RepairTranscript:
    node: int
    host_rack: int
    messages: tuple[RackMessage, ...]
    host_symbols: tuple[tuple[int, FieldElement], ...]
    recovered: FieldElement
    expected: FieldElement


@dataclass(frozen=True)
class BoundSet:
    """Cut-set lower bound, the applicable upper bound (if any), its case
    tag, and whether the upper bound is a theorem for these parameters or
    informational only."""

    b_min: Fraction
    upper: Fraction | None
    case: str
    enforced: bool


@dataclass(frozen=True)
class BandwidthReport:
    node: int
    per_rack: tuple[tuple[int, int], ...]
    b: int
    bounds: BoundSet
    ratio: Fraction
    repair_ok: bool


def bounds(params: SchemeParams, node: int) -> BoundSet:
    """Bound set for repairing `node`: always the cut-set bound, plus the
    mode- and case-specific upper bound.

    Basic modes use the single (nbar+1)l/rbar bound.  Multi-base modes pick
    the case by the failed rack's block index w (the w <= nprime - 3 formula
    is applied down to w = 0).  The prime-rbar adaptation computes the upper
    bound with rbar' = rbar - 1 but keeps the true rbar in the cut-set bound.
    Upper bounds are enforced only where they are theorems: basic modes, and
    multi-base modes with no remainder block.
    """
    rack = (node - 1) // params.u + 1
    l = params.l
    b_min = Fraction((params.nbar - 1) * l, params.rbar)
    if params.mode in ("C1", "homogeneous"):
        return BoundSet(b_min, Fraction((params.nbar + 1) * l, params.rbar), "thm8", True)
    re = params.rbar_eff
    w, _ = rack_wy(params, rack)
    if w <= params.nprime - 3:
        case, num = "i", (params.nbar - 1) + 3 * re + 3 * params.m + 1
    elif w == params.nprime - 2:
        case, num = "ii", (params.nbar - 1) + (params.m + 3) * re + 4
    elif w == params.nprime - 1:
        case, num = "iii", (params.nbar - 1) + (params.m + 1) * re + 2
    else:  # remainder rack beyond the full blocks: no case formula exists
        return BoundSet(b_min, None, "n/a", False)
    return BoundSet(b_min, Fraction(num * l, re), case, params.h == 0)


class RepairSession:
    """Per-node repair context: everything data independent (per-rack bases
    and payload maps from the scheme's rows, the dual basis at the failed
    node) is computed once and reused across codewords.

    Let g_i(e) be row i of rack e's rows, z_i = g_i(host), mu_i the dual
    basis of the z_i, sigma_e the sum of lam_j c_j over the nodes of rack e
    and nu the same sum over the surviving host nodes.  The parity check
    gives tr(z_i lam_c) = -(h_i + tr(z_i nu)), where
    h_i = sum over helper racks e of tr(g_i(e) sigma_e) is rebuilt from the
    payloads through each rack's coordinates.  Since
    sum_i tr(z_i nu) mu_i = nu, the failed symbol is
    lam_c = -(expand(h) + nu), and the host traces are never formed.
    """

    def __init__(self, instance: CodeInstance, scheme: RepairScheme):
        if not scheme.rank_verified:
            raise ValueError("refusing to repair: rank condition not verified for this scheme")
        self.instance = instance
        self.scheme = scheme
        params = instance.params
        field = instance.field
        self.host_rack, self.failed_j = instance.code.rack_of(scheme.node)
        self.lam = dual_weights(instance.code)
        self.lam_failed_inv = self.lam[scheme.node - 1].inverse()

        rows = scheme.rows
        tf = field._trace_form
        q = field.q
        self.helpers = []
        for e in range(1, params.nbar + 1):
            if e == self.host_rack:
                continue
            values = rows[e - 1]
            profile = rank_over_base(values)
            basis = tuple(values[p] for p in profile.pivots)
            basis_mat = np.stack([b.vec for b in basis])
            self.helpers.append({
                "rack": e,
                "basis": basis,
                "coords": profile.coords,
                "payload_map": basis_mat @ tf % q,  # payload = map @ mu_e
            })
        self.dual_pair = field.dual_basis(rows[self.host_rack - 1])
        self.b = sum(h["coords"].shape[1] for h in self.helpers)

    def run(self, codeword) -> tuple[RepairTranscript, BandwidthReport]:
        instance, scheme = self.instance, self.scheme
        params, field, code = instance.params, instance.field, instance.code
        q = field.q
        if len(codeword) != params.n:
            raise ValueError("codeword length does not match n")
        node = scheme.node
        expected = codeword[node - 1]

        total = np.zeros(params.l, dtype=np.int64)
        messages = []
        for h in self.helpers:
            e = h["rack"]
            mu = field.zero
            for m in range(1, params.u + 1):
                idx = code.node_index(e, m)
                mu = mu + self.lam[idx - 1] * codeword[idx - 1]
            payload = h["payload_map"] @ mu.vec % q
            total = (total + h["coords"] @ payload) % q
            messages.append(RackMessage(
                rack=e,
                basis_elems=h["basis"],
                payload=tuple(int(x) for x in payload),
            ))

        host_symbols = []
        nu = field.zero
        for m in range(1, params.u + 1):
            if m == self.failed_j:
                continue
            idx = code.node_index(self.host_rack, m)
            host_symbols.append((idx, codeword[idx - 1]))
            nu = nu + self.lam[idx - 1] * codeword[idx - 1]
        lam_c = -(expand_in_dual_basis(total, self.dual_pair) + nu)
        recovered = lam_c * self.lam_failed_inv

        transcript = RepairTranscript(
            node=node, host_rack=self.host_rack, messages=tuple(messages),
            host_symbols=tuple(host_symbols), recovered=recovered, expected=expected,
        )
        payload_count = sum(len(m.payload) for m in messages)
        if payload_count != self.b:
            raise RepairError("payload count disagrees with the rank sum", transcript)
        if recovered != expected:
            raise RepairError(
                f"exact recovery failed for node {node}: got {recovered!r}, "
                f"expected {expected!r}", transcript,
            )
        bset = bounds(params, node)
        report = BandwidthReport(
            node=node,
            per_rack=tuple((h["rack"], h["coords"].shape[1]) for h in self.helpers),
            b=self.b,
            bounds=bset,
            ratio=Fraction(self.b) / bset.b_min,
            repair_ok=True,
        )
        return transcript, report


@dataclass(frozen=True)
class AuditResult:
    ok: bool
    findings: tuple[str, ...]


def audit(transcript: RepairTranscript, report: BandwidthReport) -> AuditResult:
    """Cross-check a transcript against its report: payload counts must match
    the rank-based per-rack bandwidths, the totals must agree, the bounds
    must hold (upper bound only where enforced), and recovery must be exact.
    """
    findings = []
    per_rack = dict(report.per_rack)
    seen = []
    for msg in transcript.messages:
        seen.append(msg.rack)
        if msg.rack == transcript.host_rack:
            findings.append(f"rack {msg.rack}: message from the host rack")
            continue
        be = per_rack.get(msg.rack)
        if be is None:
            findings.append(f"rack {msg.rack}: no rank accounting in the report")
        elif len(msg.payload) != be:
            findings.append(
                f"rack {msg.rack}: payload has {len(msg.payload)} symbols, rank says {be}"
            )
        if len(msg.payload) != len(msg.basis_elems):
            findings.append(f"rack {msg.rack}: payload/basis size mismatch")
    if sorted(seen) != sorted(per_rack):
        findings.append("transcript racks do not match the report racks")
    payload_total = sum(len(m.payload) for m in transcript.messages)
    rank_total = sum(be for _, be in report.per_rack)
    if payload_total != report.b or rank_total != report.b:
        findings.append(
            f"total mismatch: payloads {payload_total}, rank sum {rank_total}, b {report.b}"
        )
    if report.b < report.bounds.b_min:
        findings.append(f"cut-set bound violated: b = {report.b} < {report.bounds.b_min}")
    if report.bounds.enforced and report.bounds.upper is not None and report.b >= report.bounds.upper:
        findings.append(
            f"upper bound violated: b = {report.b} >= {report.bounds.upper} "
            f"(case {report.bounds.case})"
        )
    if transcript.recovered != transcript.expected:
        findings.append("recovered symbol does not equal the erased symbol")
    if not report.repair_ok:
        findings.append("report does not claim successful repair")
    return AuditResult(ok=not findings, findings=tuple(findings))
