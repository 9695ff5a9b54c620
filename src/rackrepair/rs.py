"""Reed-Solomon codewords, the dual-code weight vector, and erasure
decoding as an independent MDS oracle.
Encode and the dual weights are stored as residue matrices over B, one per
rack (see `_rack_scalars`).

Codeword symbols are stored rack-major: node (e, m) sits at flat position
(e-1)*u + m, positions 1-based.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gf import ExtensionField, FieldElement, reduce_residues, residue_dtype


@dataclass(frozen=True)
class CodeSpec:
    """An RS(A, k) instance over GF(q^l) with a rack layout of nbar racks
    of u nodes each."""

    field: ExtensionField
    n: int
    k: int
    eval_points: tuple[FieldElement, ...]
    nbar: int
    u: int

    def __post_init__(self):
        if self.n != len(self.eval_points):
            raise ValueError("n does not match the number of evaluation points")
        if self.n != self.nbar * self.u:
            raise ValueError("n must equal nbar * u")
        if not self.u <= self.k < self.n:
            raise ValueError("need u <= k < n")
        if len(set(self.eval_points)) != self.n:
            raise ValueError("evaluation points must be pairwise distinct")

    @property
    def r(self) -> int:
        return self.n - self.k

    @functools.cached_property
    def point_powers(self) -> np.ndarray:
        """The (k, G, g) table S[m] = s^m of the points' B-scalars s (see
        `_rack_scalars`), in the code's `residue_dtype`: encode's per-node
        factors f_m s^m.  Built once per code, on first use."""
        q = self.field.q
        s = _rack_scalars(self.eval_points, self.u, q)
        out = np.empty((self.k, *s.shape), dtype=np.int64)
        out[0] = 1
        for m in range(1, self.k):
            out[m] = out[m - 1] * s % q
        return out.astype(self._dtype)

    @functools.cached_property
    def point_matrices(self) -> np.ndarray:
        """The (G, l, l) stack of M(gamma), gamma the first point of each
        group, in the code's `residue_dtype`."""
        return self._group_matrices(self.eval_points, self.point_powers.shape[2])

    @functools.cached_property
    def weight_scalars(self) -> np.ndarray:
        """The (G, g) B-scalars w of the dual weights, lambda_(i g + j) =
        w[i, j] lambda_(i g), in the code's `residue_dtype`."""
        return _rack_scalars(dual_weights(self), self.u, self.field.q).astype(self._dtype)

    @functools.cached_property
    def weight_matrices(self) -> np.ndarray:
        """The (G, l, l) stack of M(lambda), lambda the first dual weight of
        each group, in the code's `residue_dtype`: with `weight_scalars`, node
        i g + j maps c to lambda_(i g + j) c = M(lambda_(i g)) (w[i, j] c)."""
        return self._group_matrices(dual_weights(self), self.weight_scalars.shape[1])

    @functools.cached_property
    def weight_inverses(self) -> tuple[FieldElement, ...]:
        """lambda_i^-1 = prod_{j != i} (alpha_i - alpha_j), formed once per
        code; `dual_weights` inverts them."""
        out = []
        for i, a in enumerate(self.eval_points):
            acc = self.field.one
            for j, b in enumerate(self.eval_points):
                if i != j:
                    acc = acc * (a - b)
            out.append(acc)
        return tuple(out)

    @property
    def _dtype(self):
        return residue_dtype(self.field.q, self.field.l, self.u, self.nbar)

    def _group_matrices(self, elems: Sequence[FieldElement], g: int) -> np.ndarray:
        field = self.field
        leaders = elems[::g]
        out = np.empty((len(leaders), field.l, field.l), dtype=self._dtype)
        for i, a in enumerate(leaders):
            out[i] = field.mul_matrix(a, out.dtype)
        return out

    def node_index(self, e: int, m: int) -> int:
        """Flat 1-based index of the m-th node in rack e."""
        if not (1 <= e <= self.nbar and 1 <= m <= self.u):
            raise ValueError(f"no node ({e}, {m}) in a {self.nbar}x{self.u} layout")
        return (e - 1) * self.u + m

    def rack_of(self, node: int) -> tuple[int, int]:
        """(rack, in-rack position) of a flat 1-based node index."""
        if not 1 <= node <= self.n:
            raise ValueError(f"node {node} outside [1, {self.n}]")
        return (node - 1) // self.u + 1, (node - 1) % self.u + 1


def _rack_scalars(elems: Sequence[FieldElement], u: int, q: int) -> np.ndarray:
    """The (G, g) B-scalars that group a rack-major family of elements.

    Every code `build` makes puts rack e's points on one coset,
    alpha_(e,j) = gamma_e a^j with a in B, and its dual weights are then
    B-multiples of one element too.  When each rack's elements are
    B-multiples of the rack's first, each rack is one group (G = nbar,
    g = u) and row e holds the multiples; otherwise every element is its own
    group (G = n, g = 1, all ones).  A multiple is read off the lowest
    nonzero coefficient of the rack's first element and checked against the
    whole vector, so no field inverse is needed."""
    vecs = np.stack([e.vec for e in elems]).reshape(-1, u, elems[0].field.l)
    first = vecs[:, 0]
    lowest = (first != 0).argmax(axis=1)
    pivot = first[np.arange(len(first)), lowest]
    if pivot.all():
        inv = np.array([pow(int(p), -1, q) for p in pivot], dtype=np.int64)
        scalars = vecs[np.arange(len(first)), :, lowest] * inv[:, None] % q
        if np.array_equal(scalars[:, :, None] * first[:, None, :] % q, vecs):
            return scalars
    return np.ones((len(elems), 1), dtype=np.int64)


def poly_eval(coeffs: Sequence[FieldElement], x: FieldElement) -> FieldElement:
    """Horner evaluation; coeffs are lowest-degree first."""
    acc = x.field.zero
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def encode(message: Sequence[FieldElement], code: CodeSpec) -> tuple[FieldElement, ...]:
    """Codeword (f(alpha_1), ..., f(alpha_n)) of a message polynomial f of
    degree <= k - 1 (coefficients lowest-degree first, all in the code's
    field: anything else raises `ValueError`).

    Node j of a group with first point gamma sits at gamma s_j, s_j in B, so
    f(gamma s_j) = sum_m (f_m s_j^m) gamma^m, and one Horner step per
    coefficient serves every node: acc = M(gamma) acc + f_m s^m, reduced
    mod q, over the (G, l, g) residues of all groups at once.  Every entry
    stays below (l + 1)(q-1)^2, inside the code's `residue_dtype`."""
    if len(message) > code.k:
        raise ValueError(f"message degree exceeds k - 1 = {code.k - 1}")
    field = code.field
    mats, powers = code.point_matrices, code.point_powers
    coeffs = np.array([field._check(c).vec for c in message], dtype=mats.dtype)
    acc = np.zeros((mats.shape[0], field.l, powers.shape[2]), dtype=mats.dtype)
    for m in range(len(message) - 1, -1, -1):
        acc = reduce_residues(mats @ acc + coeffs[m][:, None] * powers[m][:, None, :], field.q)
    vecs = acc.transpose(0, 2, 1).reshape(code.n, field.l).astype(np.int64)
    return tuple(FieldElement(field, v) for v in vecs)


def _invert_all(vals: Sequence[FieldElement]) -> list[FieldElement]:
    """The inverses of nonzero vals, from one field inverse by Montgomery's
    trick: invert the product of all of them, then peel one factor off at a
    time, last first."""
    prefix = list(itertools.accumulate(vals, operator.mul))  # vals[0] ... vals[i]
    inv = prefix[-1].inverse()  # (vals[0] ... vals[i])^-1, for i from len - 1 down
    out = [None] * len(vals)
    for i in range(len(vals) - 1, 0, -1):
        out[i], inv = inv * prefix[i - 1], inv * vals[i]
    out[0] = inv
    return out


@functools.lru_cache(maxsize=None)
def dual_weights(code: CodeSpec) -> tuple[FieldElement, ...]:
    """The column multipliers that turn low-degree evaluations into dual
    codewords of the code: the inverses of `CodeSpec.weight_inverses`, all
    from one field inverse (`_invert_all`).

    A deterministic spot-check (highest-degree monomial pair) verifies the
    duality before returning.
    """
    out = tuple(_invert_all(code.weight_inverses))
    if code.k >= 1 and code.r >= 1:
        f = [code.field.zero] * (code.k - 1) + [code.field.one]  # x^(k-1)
        g = [code.field.zero] * (code.r - 1) + [code.field.one]  # x^(n-k-1)
        ip = code.field.zero
        for lam, a in zip(out, code.eval_points):
            ip = ip + lam * poly_eval(g, a) * poly_eval(f, a)
        if not ip.is_zero():
            raise AssertionError("dual weight spot-check failed")
    return out


def erasure_decode(
    partial: Sequence[tuple[int, FieldElement]], code: CodeSpec
) -> tuple[FieldElement, ...]:
    """Lagrange interpolation of the message polynomial from any k
    (position, symbol) pairs; positions are flat 1-based node indices, and
    one outside [1, n] raises `ValueError`.  The k Lagrange denominators
    take one field inverse between them (`_invert_all`).

    Returns exactly k coefficients (lowest-degree first, zero padded), so
    re-encoding reproduces all n symbols.
    """
    if len(partial) != code.k:
        raise ValueError(f"need exactly k = {code.k} symbols")
    positions = [p for p, _ in partial]
    if len(set(positions)) != len(positions):
        raise ValueError("duplicate positions in erasure pattern")
    for p in positions:
        code.rack_of(p)  # raises ValueError outside [1, n]
    field = code.field
    xs = [code.eval_points[p - 1] for p in positions]
    bases, denoms = [], []
    for i, xi in enumerate(xs):
        basis = [field.one]
        denom = field.one
        for j, xj in enumerate(xs):
            if j == i:
                continue
            # basis *= (x - xj)
            shifted = [field.zero] + basis
            basis = [s - b * xj for s, b in zip(shifted, basis + [field.zero])]
            denom = denom * (xi - xj)
        bases.append(basis)
        denoms.append(denom)
    coeffs = [field.zero] * code.k
    for (_, y), basis, inv_denom in zip(partial, bases, _invert_all(denoms)):
        scale = y * inv_denom
        for d, b in enumerate(basis):
            coeffs[d] = coeffs[d] + scale * b
    return tuple(coeffs)
