"""Exact arithmetic in B = GF(q) and F = GF(q^l), plus the trace machinery
(dual bases, ranks over B) that linear repair schemes are built on.

Everything trace-related rests on one object, the trace form
T[i, j] = tr(x^(i+j)): tr(x^i) is the i-th power sum of the roots of the
modulus, which Newton's identities give from its coefficients.  tr(a b) is
a.vec @ T @ b.vec, and the dual of a basis with coefficient rows Z comes
from one inverse of Z T.

An element of F is a length-l vector of residues mod q, lowest-degree
coefficient first, reduced modulo a monic irreducible polynomial.  Field
construction is fully deterministic: the modulus is the first irreducible
polynomial in counting order over the coefficient vector, and the primitive
element is the first candidate (same counting order) certified to have order
q^l - 1 against the prime factorization of that order.  Exponents and orders
are plain Python integers, so they stay exact far beyond machine word size.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .numbertheory import cyclotomic_value, divisors, factorize, is_prime


# ---------------------------------------------------------------------------
# polynomials over GF(q): 1-d int64 arrays, low-degree first
# ---------------------------------------------------------------------------

def _coprime(a: np.ndarray, b: np.ndarray, q: int) -> bool:
    """gcd(a, b) = 1 over GF(q), by Euclid in place on copies of a and b.

    Degrees are tracked, not trimmed: each step cancels the leading term of
    the higher polynomial with a multiple of the lower one, and the degree
    drops past the zeros it leaves.  Zero has degree -1, so gcd(0, b) is b,
    a unit only when b is a nonzero constant."""
    a, b = a % q, b % q
    tmp = np.empty(max(a.size, b.size), dtype=np.int64)

    def degree(p, d):
        while d >= 0 and p[d] == 0:
            d -= 1
        return d

    da, db = degree(a, a.size - 1), degree(b, b.size - 1)
    while db >= 0:
        inv_lead = pow(int(b[db]), -1, q)
        while da >= db:
            lo = da - db
            np.multiply(b[: db + 1], int(a[da]) * inv_lead % q, out=tmp[: db + 1])
            np.subtract(a[lo : da + 1], tmp[: db + 1], out=a[lo : da + 1])
            np.remainder(a[lo : da + 1], q, out=a[lo : da + 1])
            da = degree(a, da - 1)
        a, b, da, db = b, a, db, da
    return da == 0


class _QuotientRing:
    """Arithmetic in B[x]/(f) for a monic f (not necessarily irreducible)."""

    def __init__(self, q: int, modulus: np.ndarray):
        modulus = np.asarray(modulus, dtype=np.int64) % q
        if modulus.size < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.q = q
        self.l = modulus.size - 1
        self.modulus = modulus
        l = self.l
        # reduction[j] = coefficients of x^(l+j) mod f, for j in [0, l-2]
        red = np.zeros((max(l - 1, 0), l), dtype=np.int64)
        cur = (-modulus[:l]) % q  # x^l mod f
        for j in range(l - 1):
            red[j] = cur
            nxt = np.zeros(l, dtype=np.int64)
            nxt[1:] = cur[: l - 1]
            cur = (nxt + cur[l - 1] * red[0]) % q
        self.reduction = red

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        q, l = self.q, self.l
        if l == 1:
            return a * b % q
        full = np.convolve(a, b) % q  # length 2l - 1 for length-l inputs
        high = full[l:]
        return (full[:l] + high @ self.reduction[: high.size]) % q

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        out = None  # no factor yet: the first set bit takes base as it is
        base = a % self.q
        while e:
            if e & 1:
                out = base if out is None else self.mul(out, base)
            e >>= 1
            if e:  # no square after the last bit
                base = self.mul(base, base)
        if out is None:
            out = np.zeros(self.l, dtype=np.int64)
            out[0] = 1
        return out


# ---------------------------------------------------------------------------
# the one elimination kernel over GF(q): rank_over_base and dual_basis both
# read its reduced row echelon form
# ---------------------------------------------------------------------------

def _rref(mat: np.ndarray, q: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of `mat` over GF(q) by Gauss-Jordan
    elimination, with its pivot columns in increasing order.  The scan stops
    once every row has a pivot: no later column can hold one."""
    R = mat % q
    rows, cols = R.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        # row r is zero left of c, so only columns c onwards change
        R[r, c:] = R[r, c:] * pow(int(R[r, c]), -1, q) % q
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        if others.size:
            R[others, c:] = (R[others, c:] - np.outer(R[others, c], R[r, c:])) % q
        pivots.append(c)
    return R, tuple(pivots)


@dataclass(frozen=True)
class RankProfile:
    """Result of a rank computation over B.

    Attributes:
        rank: dimension of the span over B.
        pivots: indices of the first maximal independent subset, in input order.
        coords: (num_elements x rank) residue matrix; row i gives the
            B-coordinates of element i in the pivot subset.
    """

    rank: int
    pivots: tuple[int, ...]
    coords: np.ndarray


# ---------------------------------------------------------------------------
# compiled products over B: their dtype and their one reduction
# ---------------------------------------------------------------------------

def residue_dtype(q: int, l: int, u: int, nbar: int):
    """The dtype of every compiled product of a code with nbar racks of u
    nodes over GF(q^l): encode, repair plans and repair runs.

    A plan, run or encode product sums at most l residue products (an encode
    step adds one more), a rack's sum adds u of those, and the decoder
    product sums l + b <= nbar l; so every entry stays below
    max(u, nbar) l (q-1)^2 (nbar >= 2 in every code): exact in float32 below
    2^24, in int64 below 2^63, and in Python integers (object arrays)
    beyond."""
    bound = max(u, nbar) * l * (q - 1) ** 2
    if bound < 2**24:
        return np.float32
    if bound < 2**63:
        return np.int64
    return object


def reduce_residues(a: np.ndarray, q: int) -> np.ndarray:
    """a mod q, in a's dtype, for an array of integers in a `residue_dtype`.

    float32 entries are integers below 2^24, so a cast to int32, an integer
    `%` and a cast back are exact, and about ten times cheaper than float32
    `%`; int64 and object arrays take `%` as they are."""
    if a.dtype == np.float32:
        return (a.astype(np.int32) % q).astype(np.float32)
    return a % q


# ---------------------------------------------------------------------------
# field specs and elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeField:
    """The base field B = GF(q); q is verified prime at construction."""

    q: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")

    @functools.cached_property
    def primitive_root(self) -> int:
        """Smallest generator of GF(q)*, certified against factors of q-1."""
        checks = [(self.q - 1) // p for p in sorted(set(factorize(self.q - 1)))]
        for g in range(2, self.q):
            if all(pow(g, e, self.q) != 1 for e in checks):
                return g
        return 1  # q == 2


class FieldElement:
    """An element of GF(q^l) as an immutable residue-coefficient vector."""

    __slots__ = ("field", "vec", "_hash")

    def __init__(self, field: "ExtensionField", vec: np.ndarray):
        self.field = field
        vec = np.asarray(vec, dtype=np.int64)
        vec.flags.writeable = False
        self.vec = vec
        self._hash = None

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients as ints, lowest degree first."""
        return tuple(int(c) for c in self.vec)

    def is_zero(self) -> bool:
        return not self.vec.any()

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements belong to different field specs")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, (self.vec + o.vec) % self.field.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, (self.vec - o.vec) % self.field.q)

    def __neg__(self):
        return FieldElement(self.field, (-self.vec) % self.field.q)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field._ring.mul(self.vec, o.vec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in GF(q^l)")
        return self ** (self.field.order - 1)  # a^(q^l - 2), as a^(q^l - 1) = 1

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return FieldElement(self.field, self.field._ring.pow(self.vec, e))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.scalar(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and bool(np.array_equal(self.vec, other.vec))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.q, self.field.l, self.vec.tobytes()))
        return self._hash

    def __repr__(self):
        return f"GF({self.field.q}^{self.field.l})[{','.join(map(str, self.coeffs))}]"

    def __str__(self):
        return ",".join(map(str, self.coeffs))


class ExtensionField:
    """F = GF(q^l) with a certified primitive element and trace machinery.

    Construction performs, in order: primality check on q, the int64 bound
    l (q-1)^2 < 2^63 shared by every residue product (larger q is rejected),
    deterministic irreducible-modulus search, the trace form
    T[i, j] = tr(x^(i+j)) from the modulus by Newton's identities,
    factorization of q^l - 1 by cyclotomic splitting, and certification of
    the primitive element zeta.  Instances are immutable and safe to share.
    """

    def __init__(self, q: int, l: int):
        self.base = PrimeField(q)
        if l < 1:
            raise ValueError("extension degree must be >= 1")
        if l * (q - 1) ** 2 >= 2**63:
            raise ValueError(
                f"q = {q} is too large for int64 residue arithmetic at l = {l}: "
                "need l * (q-1)^2 < 2^63"
            )
        self.q = q
        self.l = l
        self.modulus = find_irreducible(q, l)
        self._ring = _QuotientRing(q, np.array(self.modulus, dtype=np.int64))
        self._init_trace()
        self.order = q**l - 1
        self.order_factorization = factor_field_order(q, l)
        self.zeta = find_primitive_element(self)

    def _init_trace(self):
        # tr(x^i) is the i-th power sum p_i of the roots of the modulus f (the
        # conjugates x^(q^k) of x), so Newton's identities give it from the
        # coefficients of f = x^l + c_(l-1) x^(l-1) + ... + c_0:
        #   p_i = -(sum_{j=1}^{min(i-1, l)} c_(l-j) p_(i-j) + [i <= l] i c_(l-i)).
        # Each p_i is a residue, so every trace lies in B by construction.
        q, l = self.q, self.l
        c = np.array(self.modulus[:l], dtype=np.int64)
        p = np.zeros(2 * l - 1, dtype=np.int64)
        p[0] = l % q
        for i in range(1, 2 * l - 1):
            j = min(i - 1, l)
            acc = int(c[l - j :] @ p[i - j : i])  # at most l * (q-1)^2 < 2^63
            if i <= l:
                acc += i * int(c[l - i])
            p[i] = -acc % q
        # Bilinear form T[i, j] = tr(x^(i+j)); tr(a) = T[0] @ a.
        self._trace_form = p[np.add.outer(np.arange(l), np.arange(l))]

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and self.q == other.q
            and self.l == other.l
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.q, self.l, self.modulus))

    def __repr__(self):
        return f"ExtensionField(q={self.q}, l={self.l})"

    # -- element constructors -------------------------------------------------

    def element(self, coeffs: Iterable[int]) -> FieldElement:
        vec = np.asarray(list(coeffs), dtype=np.int64)
        if vec.shape != (self.l,):
            raise ValueError(f"expected {self.l} coefficients")
        return FieldElement(self, vec % self.q)

    def scalar(self, c: int) -> FieldElement:
        vec = np.zeros(self.l, dtype=np.int64)
        vec[0] = c % self.q
        return FieldElement(self, vec)

    @functools.cached_property
    def zero(self) -> FieldElement:
        return self.scalar(0)

    @functools.cached_property
    def one(self) -> FieldElement:
        return self.scalar(1)

    def monomial(self, i: int) -> FieldElement:
        """The basis element x^i, 0 <= i < l."""
        vec = np.zeros(self.l, dtype=np.int64)
        vec[i] = 1
        return FieldElement(self, vec)

    def random_element(self, rng) -> FieldElement:
        return self.element([rng.randrange(self.q) for _ in range(self.l)])

    # -- trace machinery ------------------------------------------------------

    def trace(self, a: FieldElement) -> int:
        """tr(a) = a + a^q + ... + a^(q^(l-1)), returned as a residue mod q:
        the linear form a -> sum_i a_i tr(x^i), row 0 of the trace form."""
        self._check(a)
        return int(self._trace_form[0] @ a.vec % self.q)

    def mul_matrix(self, a: FieldElement, dtype=np.int64) -> np.ndarray:
        """The l x l residue matrix M over B with M @ b.vec = (a * b).vec.

        Column j is a * x^j: a shifted up by j (a Toeplitz gather), its part
        above degree l - 1 folded back through the reduction table.  The fold
        sums l - 1 residue products in `dtype`: exact in int64 under the
        field's bound, and in any `residue_dtype` the caller passes."""
        l, q = self.l, self.q
        pad = np.zeros(l - 1, dtype=dtype)
        padded = np.concatenate([pad, self._check(a).vec.astype(dtype), pad])
        shifted = padded[np.subtract.outer(np.arange(2 * l - 1), np.arange(l)) + l - 1]
        return reduce_residues(shifted[:l] + self._ring.reduction.T.astype(dtype) @ shifted[l:], q)

    def dual_basis(self, basis: Sequence[FieldElement]) -> "DualBasisPair":
        """Dual basis {mu_j} with tr(basis_i * mu_j) = delta_ij.

        Row i of ZT = Z T, with Z the coefficient rows of the basis and T the
        trace form, is the functional a -> tr(basis_i * a), so the coefficient
        rows of the dual basis are the columns of ZT^-1.  Row-reducing
        [ZT | I] with `_rref` gives pivots 0..l-1 exactly when the input is a
        basis (otherwise this raises), and the right block is then ZT^-1.
        The Kronecker condition is re-verified exactly before returning.
        """
        l = self.l
        if len(basis) != l:
            raise ValueError(f"need exactly {l} basis elements")
        Z = np.stack([self._check(b).vec for b in basis])
        ZT = Z @ self._trace_form % self.q
        R, pivots = _rref(np.concatenate([ZT, np.eye(l, dtype=np.int64)], axis=1), self.q)
        if pivots != tuple(range(l)):
            raise ValueError("basis is rank deficient over the base field")
        mu = R[:, l:].T
        if not np.array_equal(ZT @ mu.T % self.q, np.eye(l, dtype=np.int64)):
            raise AssertionError("dual basis failed the Kronecker condition")
        return DualBasisPair(
            zeta_basis=tuple(basis),
            mu_basis=tuple(FieldElement(self, row) for row in mu),
        )

    def element_order(self, a: FieldElement) -> int:
        """Least e >= 1 with a^e = 1, via the stored factorization of q^l - 1."""
        self._check(a)
        if a.is_zero():
            raise ValueError("the zero element has no multiplicative order")
        e = self.order
        for p in sorted(set(self.order_factorization)):
            while e % p == 0 and (a ** (e // p)) == self.one:
                e //= p
        if a**e != self.one:
            raise AssertionError("element order computation failed")
        return e

    # -- misc ----------------------------------------------------------------

    def describe(self) -> dict:
        """Serializable field description (coefficients low-degree first)."""
        return {
            "q": self.q,
            "l": self.l,
            "modulus": list(self.modulus),
            "zeta": list(self.zeta.coeffs),
        }

    def _check(self, a: FieldElement) -> FieldElement:
        if not isinstance(a, FieldElement) or (a.field is not self and a.field != self):
            raise ValueError("element does not belong to this field spec")
        return a


@dataclass(frozen=True)
class DualBasisPair:
    """Two bases of F over B with tr(zeta_i * mu_j) = delta_ij."""

    zeta_basis: tuple[FieldElement, ...]
    mu_basis: tuple[FieldElement, ...]


@functools.lru_cache(maxsize=None)
def GF(q: int, l: int) -> ExtensionField:
    """Deterministic, cached construction of GF(q^l)."""
    return ExtensionField(q, l)


# ---------------------------------------------------------------------------
# construction-time searches and certification
# ---------------------------------------------------------------------------

def find_irreducible(q: int, l: int) -> tuple[int, ...]:
    """First monic irreducible polynomial of degree l over GF(q), in counting
    order of the non-leading coefficient vector (constant term fastest).

    Candidates divisible by x or with a root in GF(q) are skipped; the rest
    go through `_is_irreducible`, a distinct-degree sieve that tests f
    coprime to the product of x^(q^d) - x mod f over a block of
    `_SIEVE_BLOCK` degrees d at a time, up to d = l/2 (the batching of von
    zur Gathen & Shoup, 1992).  A candidate fails as soon as one block finds
    a factor, and the one that passes every block is irreducible, since a
    reducible f has a factor of degree <= l/2; it is certified by Rabin's
    criterion, x^(q^l) = x mod f with gcd(x^(q^(l/p)) - x, f) = 1 for every
    prime p | l, whose gcds the sieve's blocks include.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if l < 1:
        raise ValueError("degree must be >= 1")
    if l == 1:
        return (0, 1)  # x itself; every monic linear polynomial is irreducible
    for digits in _counting_order(q, l):
        coeffs = np.array(digits + (1,), dtype=np.int64)
        if coeffs[0] == 0:  # divisible by x
            continue
        if _has_root(coeffs, q):
            continue
        if _is_irreducible(coeffs, q, l):
            return tuple(int(c) for c in coeffs)
    raise AssertionError("irreducible search exhausted the degree")


def _counting_order(q: int, l: int):
    """Every length-l vector of residues mod q in counting order: the vector
    of 0, 1, 2, ... in base q, entry 0 fastest."""
    return (digits[::-1] for digits in itertools.product(range(q), repeat=l))


def _has_root(coeffs: np.ndarray, q: int) -> bool:
    for c in range(q):
        acc = 0
        for a in coeffs[::-1]:
            acc = (acc * c + int(a)) % q
        if acc == 0:
            return True
    return False


_SIEVE_BLOCK = 8  # Frobenius terms multiplied per coprimality check in `_is_irreducible`


def _is_irreducible(coeffs: np.ndarray, q: int, l: int) -> bool:
    """Whether the monic f = `coeffs` of degree l >= 2 is irreducible over
    GF(q), by a distinct-degree sieve with one coprimality check per block.

    With h_d = x^(q^d) mod f, the terms h_d - x for the d of one block of
    `_SIEVE_BLOCK` degrees (the last block ends at l/2) are multiplied mod f,
    and f is tested coprime to the product.  This is exact: an irreducible
    g | f divides h_d - x exactly when deg g | d, and, being prime, divides
    the product exactly when it divides one of its terms; so a block fails
    exactly when f has an irreducible factor whose degree divides some d in
    it, and every reducible f has a factor of degree <= l/2.  A product that
    is 0 mod f is not coprime to f.  The last l - l/2 Frobenius steps check
    x^(q^l) = x, which completes Rabin's criterion (its d = l/p checks are
    among the sieve's)."""
    ring = _QuotientRing(q, coeffs)
    x = np.zeros(l, dtype=np.int64)
    x[1] = 1
    h = x
    half = l // 2
    for d in range(1, half + 1):
        h = ring.pow(h, q)
        term = (h - x) % q
        prod = term if (d - 1) % _SIEVE_BLOCK == 0 else ring.mul(prod, term)
        if (d % _SIEVE_BLOCK == 0 or d == half) and not _coprime(prod, coeffs, q):
            return False
    for _ in range(l - half):
        h = ring.pow(h, q)
    return bool(np.array_equal(h, x))


def factor_field_order(q: int, l: int) -> tuple[int, ...]:
    """Prime factorization of q^l - 1 as a sorted multiset.

    q^l - 1 is first split into cyclotomic polynomial values prod_{d|l}
    Phi_d(q), and each (much smaller) piece is factored by trial division
    plus deterministic Pollard rho.  The result multiplies back to q^l - 1
    and every entry is certified prime.
    """
    out: list[int] = []
    for d in divisors(l):
        out += factorize(cyclotomic_value(d, q))
    out.sort()
    prod = 1
    for p in out:
        prod *= p
        if not is_prime(p):
            raise AssertionError(f"non-prime factor {p} escaped factorization")
    if prod != q**l - 1:
        raise AssertionError("cyclotomic splitting lost a factor")
    return tuple(out)


def find_primitive_element(field: ExtensionField) -> FieldElement:
    """First element (counting order) of order q^l - 1, certified against the
    stored factorization: zeta^((q^l-1)/p) != 1 for every prime factor p.

    For l > 1 the scan starts at the first non-constant candidate (counter
    q): a constant lies in B*, whose order q - 1 is below q^l - 1."""
    checks = [field.order // p for p in sorted(set(field.order_factorization))]
    start = field.q if field.l > 1 else 1
    for digits in itertools.islice(_counting_order(field.q, field.l), start, None):
        cand = FieldElement(field, digits)
        if all((cand**e) != field.one for e in checks):
            return cand
    raise AssertionError("no primitive element found (impossible)")


# ---------------------------------------------------------------------------
# linear algebra over B
# ---------------------------------------------------------------------------

def rank_over_base(elems: Sequence[FieldElement]) -> RankProfile:
    """Rank over B of the coefficient vectors of `elems`, with the first
    maximal independent subset and the B-coordinates of every element in it.

    Element i is column i of the matrix that `_rref` reduces, so the pivot
    columns are the greedy first independent subset in input order, and
    the first `rank` rows of column i are element i's coordinates in it."""
    if not elems:
        return RankProfile(0, (), np.zeros((0, 0), dtype=np.int64))
    field = elems[0].field
    R, pivots = _rref(np.stack([field._check(e).vec for e in elems], axis=1), field.q)
    rank = len(pivots)
    return RankProfile(rank, pivots, R[:rank].T.copy())


def expand_in_dual_basis(traces: Sequence[int], pair: DualBasisPair) -> FieldElement:
    """Reconstruct a from its trace profile: a = sum_i traces[i] * mu_i."""
    mu = pair.mu_basis
    if len(traces) != len(mu):
        raise ValueError("trace profile length must match the basis size")
    field = mu[0].field
    t = np.asarray(traces, dtype=np.int64) % field.q
    mat = np.stack([m.vec for m in mu])
    return FieldElement(field, t @ mat % field.q)
