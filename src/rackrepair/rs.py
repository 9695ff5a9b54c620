"""Reed-Solomon codewords, the dual-code weight vector, dual codewords from
low-degree polynomials, and erasure decoding as an independent MDS oracle.

Codeword symbols are stored rack-major: node (e, m) sits at flat position
(e-1)*u + m, positions 1-based.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gf import ExtensionField, FieldElement


def residue_dtype(q: int, l: int, u: int, nbar: int):
    """The dtype of every compiled repair product of a code with nbar racks
    of u nodes over GF(q^l).

    A plan or run product sums at most l residue products, a rack's sum adds
    u of those, and the decoder product sums l + b <= nbar l; so every entry
    stays below max(u, nbar) l (q-1)^2: exact in float32 below 2^24, in int64
    below 2^63, and in Python integers (object arrays) beyond."""
    bound = max(u, nbar) * l * (q - 1) ** 2
    if bound < 2**24:
        return np.float32
    if bound < 2**63:
        return np.int64
    return object


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
    def weight_matrices(self) -> np.ndarray:
        """The (n, l, l) stack of multiplication matrices M(lambda_i) of the
        dual weights, in the code's `residue_dtype`: row i maps c_i to
        lambda_i c_i.  Built once per code, on first use."""
        field = self.field
        out = np.empty((self.n, field.l, field.l), dtype=residue_dtype(field.q, field.l, self.u, self.nbar))
        for i, lam in enumerate(dual_weights(self)):
            out[i] = field.mul_matrix(lam, out.dtype)
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


def poly_eval(coeffs: Sequence[FieldElement], x: FieldElement) -> FieldElement:
    """Horner evaluation; coeffs are lowest-degree first."""
    acc = x.field.zero
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def encode(message: Sequence[FieldElement], code: CodeSpec) -> tuple[FieldElement, ...]:
    """Codeword (f(alpha_1), ..., f(alpha_n)) of a message polynomial f of
    degree <= k - 1 (coefficients lowest-degree first)."""
    if len(message) > code.k:
        raise ValueError(f"message degree exceeds k - 1 = {code.k - 1}")
    return tuple(poly_eval(message, a) for a in code.eval_points)


def weights_for_points(points: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """lambda_i = prod_{j != i} (alpha_i - alpha_j)^-1 over any distinct
    point family (empty product for a single point)."""
    if len(set(points)) != len(points):
        raise ValueError("evaluation points must be pairwise distinct")
    field = points[0].field
    lambdas = []
    for i, a in enumerate(points):
        acc = field.one
        for j, b in enumerate(points):
            if i != j:
                acc = acc * (a - b)
        lambdas.append(acc.inverse())
    return tuple(lambdas)


@functools.lru_cache(maxsize=None)
def dual_weights(code: CodeSpec) -> tuple[FieldElement, ...]:
    """The column multipliers that turn low-degree evaluations into dual
    codewords of the code.

    A deterministic spot-check (highest-degree monomial pair) verifies the
    duality before returning.
    """
    out = weights_for_points(code.eval_points)
    if code.k >= 1 and code.r >= 1:
        f = [code.field.zero] * (code.k - 1) + [code.field.one]  # x^(k-1)
        g = [code.field.zero] * (code.r - 1) + [code.field.one]  # x^(n-k-1)
        ip = code.field.zero
        for lam, a in zip(out, code.eval_points):
            ip = ip + lam * poly_eval(g, a) * poly_eval(f, a)
        if not ip.is_zero():
            raise AssertionError("dual weight spot-check failed")
    return out


def dual_codeword(g: Sequence[FieldElement], code: CodeSpec) -> tuple[FieldElement, ...]:
    """(lambda_1 g(alpha_1), ..., lambda_n g(alpha_n)) for deg g <= n - k - 1."""
    if len(g) > code.r:
        raise ValueError(
            f"polynomial degree exceeds n - k - 1 = {code.r - 1}; "
            "inconsistent with the code rate"
        )
    lam = dual_weights(code)
    return tuple(w * poly_eval(g, a) for w, a in zip(lam, code.eval_points))


def erasure_decode(
    partial: Sequence[tuple[int, FieldElement]], code: CodeSpec
) -> tuple[FieldElement, ...]:
    """Lagrange interpolation of the message polynomial from any k
    (position, symbol) pairs; positions are flat 1-based node indices.

    Returns exactly k coefficients (lowest-degree first, zero padded), so
    re-encoding reproduces all n symbols.
    """
    if len(partial) != code.k:
        raise ValueError(f"need exactly k = {code.k} symbols")
    positions = [p for p, _ in partial]
    if len(set(positions)) != len(positions):
        raise ValueError("duplicate positions in erasure pattern")
    field = code.field
    xs = [code.eval_points[p - 1] for p in positions]
    coeffs = [field.zero] * code.k
    for i, (_, y) in enumerate(partial):
        basis = [field.one]
        denom = field.one
        for j, xj in enumerate(xs):
            if j == i:
                continue
            # basis *= (x - xj)
            shifted = [field.zero] + basis
            basis = [s - b * xj for s, b in zip(shifted, basis + [field.zero])]
            denom = denom * (xs[i] - xj)
        scale = y / denom
        for d, b in enumerate(basis):
            coeffs[d] = coeffs[d] + scale * b
    return tuple(coeffs)
