"""Reed-Solomon codewords, the dual-code weight vector, and erasure
decoding as an independent MDS oracle.
Every code puts each rack on one coset of the order-u subgroup of GF(q)*,
so encode and the dual weights are stored as one residue matrix over B per
rack and one row of B-scalars that every rack shares.

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
    """An RS(A, k) instance over GF(q^l) on nbar = len(leaders) racks of u
    nodes each: node j of rack e sits at gamma_e alpha^j (j = 1..u), gamma_e
    the rack's leader and alpha in B = GF(q) of order exactly u.  Rack e's
    points are then the coset gamma_e <alpha>, the roots of x^u - gamma_e^u."""

    field: ExtensionField
    k: int
    leaders: tuple[FieldElement, ...]
    alpha: int
    u: int

    def __post_init__(self):
        q, a, u = self.field.q, self.alpha, self.u
        powers = [pow(a, d, q) for d in range(1, u + 1)]
        if not 0 < a < q or powers[-1:] != [1] or 1 in powers[:-1]:
            raise ValueError(f"alpha = {a} does not have order u = {u} in GF({q})")
        for gamma in self.leaders:
            self.field._check(gamma)  # raises ValueError for a leader of another field
        if not self.u <= self.k < self.n:
            raise ValueError("need u <= k < n")
        if len(set(self.eval_points)) != self.n:
            raise ValueError("evaluation points must be pairwise distinct")

    @property
    def nbar(self) -> int:
        return len(self.leaders)

    @property
    def n(self) -> int:
        return self.nbar * self.u

    @property
    def r(self) -> int:
        return self.n - self.k

    @functools.cached_property
    def eval_points(self) -> tuple[FieldElement, ...]:
        """gamma_e alpha^j for j = 1..u, rack-major."""
        q = self.field.q
        return tuple(gamma * pow(self.alpha, j, q)
                     for gamma in self.leaders for j in range(1, self.u + 1))

    @functools.cached_property
    def point_powers(self) -> np.ndarray:
        """The (k, u) table alpha^(jm) (row m, column j - 1), in the code's
        `residue_dtype`: encode's factors f_m alpha^(jm) for node j of every
        rack.  Built once per code, on first use: row m is row m - 1 times
        row 1 = alpha^j, one int64 vector product mod q each."""
        step = np.array([pow(self.alpha, j, self.field.q) for j in range(1, self.u + 1)])
        rows = np.ones((self.k, self.u), dtype=np.int64)
        for m in range(1, self.k):
            rows[m] = rows[m - 1] * step % self.field.q
        return rows.astype(self._dtype)

    @functools.cached_property
    def point_matrices(self) -> np.ndarray:
        """The (nbar, l, l) stack of M(gamma_e), in the code's `residue_dtype`."""
        return self._rack_matrices(self.leaders)

    @functools.cached_property
    def weight_scalars(self) -> np.ndarray:
        """The (u,) B-scalars w_j = alpha^((1-j)(u-1)) = alpha^(j-1) that
        every rack shares, lambda_(e,j) = w_j lambda_(e,1), in the code's
        `residue_dtype`.  Rack e's points are the roots of x^u - gamma_e^u,
        so the factor of lambda_(e,j)^-1 inside the rack is
        u (gamma_e alpha^j)^(u-1) and the rest does not depend on j;
        `dual_weights` checks the identity on every node."""
        q = self.field.q
        return np.array([pow(self.alpha, j - 1, q) for j in range(1, self.u + 1)],
                        dtype=self._dtype)

    @functools.cached_property
    def weight_matrices(self) -> np.ndarray:
        """The (nbar, l, l) stack of M(lambda_(e,1)), in the code's
        `residue_dtype`: with `weight_scalars`, node (e, j) maps c to
        lambda_(e,j) c = M(lambda_(e,1)) (w_j c)."""
        return self._rack_matrices(dual_weights(self)[::self.u])

    @functools.cached_property
    def weight_inverses(self) -> tuple[FieldElement, ...]:
        """lambda_i^-1 = prod_{j != i} (alpha_i - alpha_j), formed once per
        code one rack at a time.  Rack f's points are the roots of
        x^u - gamma_f^u, so at a point a of rack e its factors multiply to
        a^u - gamma_f^u = gamma_e^u - gamma_f^u, and those of rack e itself
        to the derivative u a^(u-1): nbar^2 + n products, not n^2, with each
        node's own power a^(u-1).  `dual_weights` inverts them."""
        u = self.u
        rack_powers = [gamma ** u for gamma in self.leaders]
        rack_factors = []
        for e, c in enumerate(rack_powers):
            acc = self.field.scalar(u)
            for f, d in enumerate(rack_powers):
                if f != e:
                    acc = acc * (c - d)
            rack_factors.append(acc)
        return tuple(a ** (u - 1) * rack_factors[i // u] for i, a in enumerate(self.eval_points))

    @property
    def _dtype(self):
        return residue_dtype(self.field.q, self.field.l, self.u, self.nbar)

    def _rack_matrices(self, elems: Sequence[FieldElement]) -> np.ndarray:
        return np.stack([self.field.mul_matrix(a, self._dtype) for a in elems])

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


def encode(message: Sequence[FieldElement], code: CodeSpec) -> tuple[FieldElement, ...]:
    """Codeword (f(alpha_1), ..., f(alpha_n)) of a message polynomial f of
    degree <= k - 1 (coefficients lowest-degree first, all in the code's
    field: anything else raises `ValueError`).

    Node j of rack e sits at gamma_e alpha^j, so
    f(gamma_e alpha^j) = sum_m (f_m alpha^(jm)) gamma_e^m, and one Horner
    step per coefficient serves every node: acc = M(gamma_e) acc + f_m
    alpha^(jm), reduced mod q, over the (nbar, l, u) residues of all racks at
    once.  Every entry stays below (l + 1)(q-1)^2, inside the code's
    `residue_dtype`."""
    if len(message) > code.k:
        raise ValueError(f"message degree exceeds k - 1 = {code.k - 1}")
    field = code.field
    mats, powers = code.point_matrices, code.point_powers
    coeffs = np.array([field._check(c).vec for c in message], dtype=mats.dtype)
    acc = np.zeros((code.nbar, field.l, code.u), dtype=mats.dtype)
    for m in range(len(message) - 1, -1, -1):
        acc = reduce_residues(mats @ acc + coeffs[m][:, None] * powers[m], field.q)
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


@functools.lru_cache(maxsize=1)
def dual_weights(code: CodeSpec) -> tuple[FieldElement, ...]:
    """The column multipliers that turn low-degree evaluations into dual
    codewords of the code: the inverses of `CodeSpec.weight_inverses`, all
    from one field inverse (`_invert_all`).

    Two deterministic checks verify them before returning.  The
    highest-degree pair x^(k-1) x^(n-k-1) = x^(n-2) must have
    sum_i lambda_i alpha_i^(n-2) = 0, and every weight must be its rack's
    first times its B-scalar, lambda_(e,j) = w_j lambda_(e,1)
    (`CodeSpec.weight_scalars`).  The cache keeps only the last code.
    """
    out = tuple(_invert_all(code.weight_inverses))
    ip = code.field.zero
    for lam, a in zip(out, code.eval_points):
        ip = ip + lam * a ** (code.n - 2)
    if not ip.is_zero():
        raise AssertionError("dual weight spot-check failed")
    vecs = np.stack([lam.vec for lam in out]).reshape(code.nbar, code.u, code.field.l)
    scaled = code.weight_scalars.astype(np.int64)[:, None] * vecs[:, :1] % code.field.q
    if not np.array_equal(scaled, vecs):
        raise AssertionError("dual weights are not w_j times their rack's first weight")
    return out


def erasure_decode(
    partial: Sequence[tuple[int, FieldElement]], code: CodeSpec
) -> tuple[FieldElement, ...]:
    """Lagrange interpolation of the message polynomial from any k
    (position, symbol) pairs at flat 1-based node indices (a position outside
    [1, n] or a symbol outside the code's field raises `ValueError`).  The k
    Lagrange denominators take one field inverse between them (`_invert_all`).

    Returns exactly k coefficients (lowest-degree first, zero padded), so
    re-encoding reproduces all n symbols.
    """
    if len(partial) != code.k:
        raise ValueError(f"need exactly k = {code.k} symbols")
    positions = [p for p, _ in partial]
    if len(set(positions)) != len(positions):
        raise ValueError("duplicate positions in erasure pattern")
    field = code.field
    for p, y in partial:
        code.rack_of(p)  # raises ValueError outside [1, n]
        field._check(y)  # and for a symbol outside the code's field
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
