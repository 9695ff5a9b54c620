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
from .gf import FieldElement, rank_over_base, reduce_residues


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

    def violations(self, b: int) -> tuple[str, ...]:
        """One finding per bound that bandwidth b breaks: the cut-set bound
        always, the upper bound only where it is enforced."""
        out = []
        if b < self.b_min:
            out.append(f"cut-set bound violated: b = {b} < {self.b_min}")
        if self.enforced and self.upper is not None and b >= self.upper:
            out.append(f"upper bound violated: b = {b} >= {self.upper} (case {self.case})")
        return tuple(out)


@dataclass(frozen=True)
class BandwidthReport:
    node: int
    per_rack: tuple[tuple[int, int], ...]
    b: int
    bounds: BoundSet
    ratio: Fraction


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
    """Per-node repair: its weight group's plan and its B-scalar, compiled
    into residue matrices over B and run on any number of codewords.

    Let g_i(e) be row i of rack e's rows, z_i = g_i(host), mu_i the dual
    basis of the z_i, sigma_e the sum of lam_j c_j over rack e and nu that
    sum over the surviving host nodes.  Helper rack e sends
    payload_e = P_e @ sigma_e, the traces against the first maximal
    independent subset of its rows (P_e = basis rows @ T); their traces
    against all rows are h = sum_e coords_e @ payload_e.  The parity check
    gives tr(z_i lam_f c_f) = -(h_i + tr(z_i nu)), so
    c_f = H (expand(h) + nu) with host map H = -M(lam_f^-1).  The plan is
    P_e and one decoder [H | D_e ...], D_e = H mu^T coords_e, with H read
    from the code's stored lambda_f^-1 (no field inverse per node).  A run
    uses the code's per-rack weight stack: rack e's weights are
    lambda_(e,j) = w_j lambda_(e,1), w_j in B, so sigma_e is
    M(lambda_(e,1)) (sum_j w_j c_j), one B-combination and one batched
    product for all racks (one group per node when a code's weights do not
    factor so; see `CodeSpec.weight_matrices`); then one product per helper
    rack and one decoder product.  The rows depend only on the rack and the
    decoder is linear in H, so a group shares one plan, compiled for its
    first node: node j's decoder is w_j^-1 times that node's, mod q, which
    a run applies to the decoded vector.  `CodeInstance.plan_memo` keeps
    the group compiled last.

    Every product and running sum stays below max(u, nbar) l (q-1)^2, so it
    is exact in the dtype `residue_dtype` picks for that bound (float32 below
    2^24, int64 below 2^63, Python integers beyond), and each is reduced by
    `reduce_residues`.  The symbols must belong to the code's field
    (`ValueError` otherwise).  The failed symbol is not read: its row of the
    stack is zero, and it appears only as `expected`.
    """

    def __init__(self, instance: CodeInstance, scheme: RepairScheme):
        if not scheme.rank_verified:
            raise ValueError("refusing to repair: rank condition not verified for this scheme")
        self.instance = instance
        self.scheme = scheme
        params, field, code = instance.params, instance.field, instance.code
        q, node = field.q, scheme.node
        self.host_rack, failed_j = code.rack_of(node)
        self.weights = code.weight_matrices
        dtype = self.weights.dtype
        self.scalars = code.weight_scalars[:, :, None]

        group, j = divmod(node - 1, self.scalars.shape[1])
        memo, key = instance.plan_memo, (group, scheme.descriptors)
        if key not in memo:  # compile the group's plan for its first node, node - j
            memo.clear()  # before compiling, so the old plan is freed first
            rows = scheme.rows
            tf = field._trace_form.astype(dtype)
            lam_inv = code.weight_inverses[node - j - 1]
            host_map = reduce_residues(-field.mul_matrix(lam_inv, dtype), q)
            mu = np.stack([m.vec for m in field.dual_basis(rows[self.host_rack - 1]).mu_basis])
            expand = reduce_residues(host_map @ mu.T.astype(dtype), q)
            helpers = []  # (rack, basis, payload map P_e)
            blocks = [host_map]  # the decoder, l x (l + b): [nu, payloads...] -> c_f
            for e in range(1, params.nbar + 1):
                if e == self.host_rack:
                    continue
                values = rows[e - 1]
                profile = rank_over_base(values)
                basis = tuple(values[p] for p in profile.pivots)
                basis_mat = np.stack([b.vec for b in basis]).astype(dtype)
                helpers.append((e, basis, reduce_residues(basis_mat @ tf, q)))
                blocks.append(reduce_residues(expand @ profile.coords.astype(dtype), q))
            memo[key] = tuple(helpers), np.concatenate(blocks, axis=1)
        self.helpers, self.decoder = memo[key]
        self.w_inv = pow(int(self.scalars[group, j, 0]), -1, q)  # the node's B-scalar
        self.b = self.decoder.shape[1] - params.l
        self.host_nodes = tuple(code.node_index(self.host_rack, m)
                                for m in range(1, params.u + 1) if m != failed_j)
        bset = bounds(params, node)
        self.report = BandwidthReport(
            node=node,
            per_rack=tuple((e, len(basis)) for e, basis, _ in self.helpers),
            b=self.b,
            bounds=bset,
            ratio=Fraction(self.b) / bset.b_min,
        )

    def run(self, codeword) -> tuple[RepairTranscript, BandwidthReport]:
        instance, scheme = self.instance, self.scheme
        params, field = instance.params, instance.field
        q = field.q
        if len(codeword) != params.n:
            raise ValueError("codeword length does not match n")
        node = scheme.node
        expected = codeword[node - 1]

        vecs = [field._check(c).vec for c in codeword]
        vecs[node - 1] = field.zero.vec
        symbols = np.array(vecs, dtype=self.weights.dtype).reshape(*self.scalars.shape[:2], params.l)
        # each group's symbols combined with their weight scalars, then one
        # product per group; sigma_e for every rack, the host rack's sum is nu
        combined = reduce_residues((self.scalars * symbols).sum(axis=1), q)
        sigma = self.weights @ combined[:, :, None]
        sigma = reduce_residues(sigma.reshape(params.nbar, -1, params.l).sum(axis=1), q)
        parts = [sigma[self.host_rack - 1]]
        messages = []
        for e, basis, payload_map in self.helpers:
            payload = reduce_residues(payload_map @ sigma[e - 1], q)
            parts.append(payload)
            messages.append(RackMessage(
                rack=e, basis_elems=basis, payload=tuple(payload.astype(np.int64).tolist()),
            ))
        vec = reduce_residues(self.decoder @ np.concatenate(parts), q)
        recovered = FieldElement(field, vec.astype(np.int64) * self.w_inv % q)

        transcript = RepairTranscript(
            node=node, host_rack=self.host_rack, messages=tuple(messages),
            host_symbols=tuple((idx, codeword[idx - 1]) for idx in self.host_nodes),
            recovered=recovered, expected=expected,
        )
        payload_count = sum(len(m.payload) for m in messages)
        if payload_count != self.b:
            raise RepairError("payload count disagrees with the rank sum", transcript)
        if recovered != expected:
            raise RepairError(
                f"exact recovery failed for node {node}: got {recovered!r}, "
                f"expected {expected!r}", transcript,
            )
        return transcript, self.report


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
    findings += report.bounds.violations(report.b)
    if transcript.recovered != transcript.expected:
        findings.append("recovered symbol does not equal the erased symbol")
    return AuditResult(ok=not findings, findings=tuple(findings))
