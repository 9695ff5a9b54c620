"""Trace-based single-node repair over the rack model.

A repair run produces two artifacts: a transcript of what actually crossed
rack boundaries (per helper rack, a basis of the evaluated polynomial span
and one trace residue per basis element), and the node's bandwidth report,
which is its `constructions.RankCheck`: the per-rack ranks, their sum b,
the cut-set lower bound and the applicable per-construction upper bound.

Bandwidth is a rank, so it is data independent; the payload realizes the
rank count as actual base-field symbols, which keeps the accounting
auditable: the transmitted symbol count and the rank sum are computed
separately and must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .constructions import CodeInstance, RankCheck, RepairScheme, verify_rank_condition
from .gf import FieldElement, reduce_residues


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


class RepairSession:
    """Per-node repair: its rack's plan, as `verify_rank_condition` compiles
    it, and its B-scalar, run on any number of codewords.

    Let g_i(e) be the value of the family's i-th polynomial at rack e
    (`verify_rank_condition` evaluates it), z_i = g_i(host), mu_i the dual
    basis of the z_i, sigma_e the sum of lam_j c_j over rack e and nu that
    sum over the surviving host nodes.  Helper rack e sends
    payload_e = P_e @ sigma_e, the traces against the first maximal
    independent subset of its values (P_e = basis rows @ T); their traces
    against all values are h = sum_e coords_e @ payload_e.  The parity check
    gives tr(z_i lam_f c_f) = -(h_i + tr(z_i nu)), so c_f = H (expand(h) + nu)
    with host map H = -M(lam_f^-1), read from the code's stored lambda_f^-1.
    The decoder is [H | D_e ...], D_e = H mu^T coords_e, for the rack's
    first node.  Rack e's points are gamma_e alpha^j, so
    lambda_(e,j) = w_j lambda_(e,1) with the B-scalars w_j of
    `CodeSpec.weight_scalars`, one row for every rack: node j applies
    w_j^-1 mod q to the decoded vector.  The session checks its node's rack
    itself (a memo hit when that rack was checked last) and is refused
    unless the rank is l; `run` returns that check, the node's bandwidth
    report, with each transcript.

    A run has four stages, one reduction each, whatever nbar is: the n
    symbols become one (nbar, u, l) residue array, and their B-combination
    per rack; every sigma_e = M(lambda_(e,1)) (sum_j w_j c_j) by one batched
    product; every payload by one batched product of the helpers' sigma_e
    with the rack's stacked payload map, whose slice i holds the i-th
    helper's P_e above zero padding, read by the plan's `payload_at`; and
    the decoder's one product.  The payloads become ints once, sliced into
    each `RackMessage` (the slices and helper rows are the session's own,
    the rest of the plan its rack's).  Every
    product and running sum stays below max(u, nbar) l (q-1)^2 (a payload
    sums l residue products), so it is exact in the dtype `residue_dtype`
    picks for that bound (float32 below 2^24, int64 below 2^63), and each
    is reduced by `reduce_residues`.  The symbols must belong to the code's
    field (`ValueError` otherwise).  The failed symbol is not read: its row
    of the stack is zero, and it appears only as `expected`.
    """

    def __init__(self, instance: CodeInstance, scheme: RepairScheme):
        self.instance = instance
        self.scheme = scheme
        params, code = instance.params, instance.code
        node = scheme.node
        self.host_rack, failed_j = code.rack_of(node)
        check = verify_rank_condition(instance, node)
        if not check.ok:
            raise ValueError("refusing to repair: rank condition not verified for this scheme")
        self.check, self.decoder, self.b = check, check.decoder, check.b
        self.weights = code.weight_matrices
        self.scalars = code.weight_scalars[:, None]
        self.w_inv = pow(int(code.weight_scalars[failed_j - 1]), -1, params.q)
        self.host_nodes = tuple(code.node_index(self.host_rack, m)
                                for m in range(1, params.u + 1) if m != failed_j)
        # each helper's message takes its slice of the gathered payloads
        racks, sizes = zip(*check.per_rack)
        self.helper_rows = np.array(racks) - 1
        ends = list(accumulate(sizes))
        self.slices = tuple(zip(racks, check.bases, [0] + ends[:-1], ends))

    def run(self, codeword) -> tuple[RepairTranscript, RankCheck]:
        instance, scheme, check = self.instance, self.scheme, self.check
        params, field = instance.params, instance.field
        q = field.q
        if len(codeword) != params.n:
            raise ValueError("codeword length does not match n")
        node = scheme.node
        expected = codeword[node - 1]

        vecs = [field._check(c).vec for c in codeword]
        vecs[node - 1] = field.zero.vec
        symbols = np.array(vecs, dtype=self.weights.dtype).reshape(params.nbar, params.u, params.l)
        combined = reduce_residues((self.scalars * symbols).sum(axis=1), q)
        # sigma_e for every rack; the host rack's is nu
        sigma = reduce_residues(self.weights @ combined[:, :, None], q)[:, :, 0]
        payloads = reduce_residues(
            (check.payload_map @ sigma[self.helper_rows, :, None]).take(check.payload_at), q)
        parts = np.concatenate([sigma[self.host_rack - 1], payloads])
        vec = reduce_residues(self.decoder @ parts, q)
        recovered = FieldElement(field, vec.astype(np.int64) * self.w_inv % q)

        values = payloads.astype(np.int64).tolist()
        messages = tuple(RackMessage(rack=e, basis_elems=basis, payload=tuple(values[a:z]))
                         for e, basis, a, z in self.slices)
        transcript = RepairTranscript(
            node=node, host_rack=self.host_rack, messages=messages,
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
        return transcript, check


@dataclass(frozen=True)
class AuditResult:
    ok: bool
    findings: tuple[str, ...]


def audit(transcript: RepairTranscript, report: RankCheck) -> AuditResult:
    """Cross-check a transcript against its report, the node's `RankCheck`:
    payload counts must match the rank-based per-rack bandwidths, the totals
    must agree, the bounds must hold (upper bound only where enforced), and
    recovery must be exact.
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
