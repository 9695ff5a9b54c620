"""Exact arithmetic in B = GF(q) and F = GF(q^l), plus the trace machinery
(dual bases, ranks over B) that linear repair schemes are built on.

Everything trace-related rests on one object, the trace form
T[i, j] = tr(x^(i+j)): tr(x^i) is the i-th power sum of the roots of the
modulus, which Newton's identities give from its coefficients.  tr(a b) is
a.vec @ T @ b.vec, and the dual of a basis with coefficient rows Z comes
from one inverse of Z T.

Linear algebra over B has one kernel, `_rref`: Gauss-Jordan elimination
with delayed reduction (each column reduced mod q when the scan reaches it,
the rest once at the end) and no row swaps, in int32 whenever its asserted
bound allows.  `rank_over_base` and `dual_basis` both read its reduced row
echelon form, and the dual basis's two products are float64 matrix
products, exact below 2^53.

An element of F is a length-l vector of residues mod q, lowest-degree
coefficient first, reduced modulo a monic irreducible polynomial.  Field
construction is fully deterministic: the modulus is the first irreducible
polynomial in counting order over the coefficient vector, and the primitive
element is the first candidate (same counting order) certified to have order
q^l - 1 against the prime factorization of that order.  Exponents and orders
are plain Python integers, so they stay exact far beyond machine word size.

The Frobenius map a -> a^q is B-linear, so B[x]/(f), for any monic f,
has one l x l residue matrix Q with Q a = a^q, in a float dtype where its
matvecs are exact and take BLAS (the Frobenius technique of von zur Gathen
& Shoup, 1992): a field keeps its Q in float64.  Column j is x^(qj) mod f,
read from the ring's power table while qj <= 2l - 2 and doubled past it,
by the one power-table routine (`_QuotientRing.powers`) that also gives a
code's table of beta powers.

The modulus search rejects most candidates without building their
quotient ring: one matrix product per block of candidates with a table of
x^i mod p, for every small irreducible p, finds the candidates with a small
factor (a root included), and only the rest go through Rabin's test, which
takes x^(q^d) mod f as d matvecs with the candidate's Q, in float32
whenever l (q-1)^2 < 2^24, and needs a gcd only for a candidate with
x^(q^l) = x.  Each candidate's test is charged its l^2-weighted products
from one `StepBudget` per search, so a degree whose search cannot finish
within it is refused with `ValueError`.

Large powers in a field use its Q too: a^e is Horner's rule on the base-q
digits of e, one Q step per digit.  The certification of the primitive
element and the inverse a^(q^l - 2) both take their powers this way, and
square-and-multiply (`_QuotientRing.pow`) takes only exponents up to q:
x^q for Q when q > 2l - 2, and the powers of one base-q digit.

Certifying zeta has two halves.  q^l - 1 is factored one cyclotomic piece
Phi_d(q) at a time, by `factorize` in the residue class of its primes, all
pieces under one step budget.  Each prime p is then checked through the norm to
the least subfield GF(q^d) with p | q^d - 1, so a check powers an element
of that subfield, and the candidate's norms are built from each other.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .numbertheory import StepBudget, cyclotomic_value, divisors, factorize, is_prime, rho_budget


# ---------------------------------------------------------------------------
# polynomials over GF(q): 1-d int64 arrays, low-degree first
# ---------------------------------------------------------------------------

def _coprime(a: np.ndarray, b: np.ndarray, q: int) -> bool:
    """gcd(a, b) = 1 over GF(q), by Euclid in place on copies of a and b.

    Degrees are tracked, not trimmed: each step cancels the leading term of
    the higher polynomial with a multiple of the lower one, and the degree
    drops past the zeros it leaves.  Zero has degree -1, so gcd(0, b) is b,
    a unit only when b is a nonzero constant."""
    a, b = a.astype(np.int64) % q, b % q
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
        # reduction[j] = coefficients of x^(l+j) mod f, for j in [0, l-2].
        # x^l mod f = -(f - x^l) has degree s, so row j < l - s is it
        # shifted up by j (one Toeplitz gather), and only the last s - 1
        # rows fold their top coefficient back through row 0.
        top = (-modulus[:l]) % q  # x^l mod f
        s = int(np.flatnonzero(top)[-1]) if top.any() else 0
        shifted = min(l - s, l - 1)
        padded = np.concatenate([np.zeros(l, dtype=np.int64), top])
        red = np.empty((max(l - 1, 0), l), dtype=np.int64)
        red[:shifted] = padded[l + np.arange(l) - np.arange(shifted)[:, None]]
        for j in range(shifted, l - 1):
            red[j, 0] = 0
            red[j, 1:] = red[j - 1, :-1]
            red[j] = (red[j] + red[j - 1, -1] * top) % q
        self.reduction = red

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        q, l = self.q, self.l
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

    def mul_matrix(self, a: np.ndarray, dtype=np.int64) -> np.ndarray:
        """The l x l residue matrix M over B with M @ b % q = a b mod f.

        Column j is a * x^j: a shifted up by j (a strided Toeplitz view of
        the zero-padded a), its part above degree l - 1 folded back through
        the reduction table.  The fold sums l - 1 residue products in
        `dtype`: exact in int64 and float64 under the field's bound, and in
        any `residue_dtype` the caller passes."""
        l = self.l
        pad = np.zeros(l - 1, dtype=dtype)
        padded = np.concatenate([pad, a.astype(dtype), pad])
        shifted = np.lib.stride_tricks.sliding_window_view(padded, l)[:, ::-1]
        return reduce_residues(shifted[:l] + self.reduction.T.astype(dtype) @ shifted[l:], self.q)

    def powers(self, seed: np.ndarray, count: int) -> np.ndarray:
        """The rows r^0 .. r^(count-1) mod f, in `seed`'s float dtype, from
        `seed`, the rows r^0 .. r^(m-1) for some m >= 2 (or m >= count).

        Each doubling takes rows [m, 2m) as rows [0, m) times r^m: one `mul`
        for r^m = r^(m-1) r, one `mul_matrix` and one matrix product.  Every
        product sums l residue products, so the rows are exact in
        `_exact_float`'s dtype for l (q-1)^2 or a wider one, as the callers
        choose it."""
        rows = np.empty((count, self.l), dtype=seed.dtype)
        m = min(len(seed), count)
        rows[:m] = seed[:m]
        while m < count:
            r_m = self.mul(rows[m - 1].astype(np.int64), rows[1].astype(np.int64))
            n = min(m, count - m)
            rows[m : m + n] = reduce_residues(rows[:n] @ self.mul_matrix(r_m, rows.dtype).T, self.q)
            m += n
        return rows

    def frobenius(self, dtype=np.float64) -> np.ndarray:
        """The l x l residue matrix Q with Q @ h % q = h^q mod f, as
        h -> h^q is B-linear: column j is x^(qj) mod f = r^j, r = x^q mod f.

        Every column with qj <= 2l - 2 is gathered from the ring's power
        table (a unit row below degree l, else a `reduction` row), and
        `powers` doubles the rest; only when q > 2l - 2 is r formed first,
        by square-and-multiply (the Frobenius computations of von zur
        Gathen & Shoup, 1992).  Every product, and every later one with Q,
        sums l residue products, at most l (q-1)^2, so Q is built in `dtype`
        or, when the bound needs it, in `_exact_float`'s wider dtype, which
        raises `AssertionError` from 2^53 on (`MAX_Q` and `MAX_L` keep the
        bound at most 2^44)."""
        q, l = self.q, self.l
        dtype = np.promote_types(dtype, _exact_float(l * (q - 1) ** 2, "Frobenius"))
        power = q * np.arange(min(l, (2 * l - 2) // q + 1))  # the gathered x^(qj)
        low = power < l
        seed = np.zeros((power.size, l), dtype=dtype)
        seed[low, power[low]] = 1
        seed[~low] = self.reduction[power[~low] - l]
        if power.size == 1 < l:  # q > 2l - 2: r = x^q by square-and-multiply
            seed = np.stack([seed[0], self.pow(np.eye(1, l, 1, dtype=np.int64)[0], q).astype(dtype)])
        return np.ascontiguousarray(self.powers(seed, l).T)


# ---------------------------------------------------------------------------
# the one elimination kernel over GF(q): rank_over_base and dual_basis both
# read its reduced row echelon form
# ---------------------------------------------------------------------------

def _rref_dtype(rows: int, q: int):
    """The dtype `_rref` reduces a matrix of `rows` rows over GF(q) in: its
    entries stay below rows (q-1)^2 + q in absolute value, so int32 below
    2^31 and int64 otherwise; `MAX_Q` and `MAX_L` keep the bound below 2^45,
    and one of 2^63 or more raises `AssertionError`."""
    bound = rows * (q - 1) ** 2 + q
    if bound >= 2**63:
        raise AssertionError(f"elimination entries of up to {bound} overflow int64")
    return np.int32 if bound < 2**31 else np.int64


def _rref(mat: np.ndarray, q: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of `mat` over GF(q) by Gauss-Jordan
    elimination, as int64 residues, with its pivot columns in increasing
    order.  The scan stops once every row has a pivot: no later column can
    hold one.

    Reduction is delayed, as in FFLAS-FFPACK (Dumas, Giorgi & Pernet, 2008).
    Each column is reduced mod q when the scan reaches it, which finds the
    pivot and the multipliers; the pivot row is reduced and scaled to a
    leading 1, and every other row nonzero in the column subtracts its
    multiple of it with no `% q`.  A row takes at most one update per pivot,
    each of at most (q-1)^2, which gives `_rref_dtype` its bound; one `% q`
    at the end reduces the rest.  Rows are not swapped: a mask keeps the
    rows not yet used as pivots, and the pivot rows are gathered in pivot
    order at the end, above the others (all 0 mod q).  The reduced form is
    unique, so neither the dtype nor the choice of pivot rows changes it."""
    R = (mat % q).astype(_rref_dtype(len(mat), q))
    free = np.ones(len(R), dtype=bool)
    pivot_row: dict[int, int] = {}  # pivot column -> its row, in pivot order
    for c in range(R.shape[1]):
        if len(pivot_row) == len(R):
            break
        col = R[:, c] % q
        nz = col != 0
        p = int((nz & free).argmax())
        if not (nz[p] and free[p]):
            continue
        nz[p] = free[p] = False
        # row p is 0 mod q left of c, so only columns c onwards change
        prow = R[p, c:] = R[p, c:] % q * pow(int(col[p]), -1, q) % q
        R[nz, c:] -= col[nz, None] * prow
        pivot_row[c] = p
    return (R[[*pivot_row.values(), *np.flatnonzero(free)]] % q).astype(np.int64), tuple(pivot_row)


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
    2^24 and in int64 below 2^63.  Every code `build` makes has u <= q - 1
    and nbar <= 12 under the field limits, so its bound is at most 2^60;
    a bound of 2^63 or more raises `ValueError`."""
    bound = max(u, nbar) * l * (q - 1) ** 2
    if bound < 2**24:
        return np.float32
    if bound < 2**63:
        return np.int64
    raise ValueError(f"residue products of up to {bound} do not fit in int64")


def _exact_float(bound: int, what: str):
    """The float dtype in which sums of integers below `bound` are exact:
    float32 below 2^24 and float64 below 2^53; a larger bound raises
    `AssertionError`, naming `what` products."""
    if bound >= 2**53:
        raise AssertionError(f"{what} products of up to {bound} overflow float64")
    return np.float32 if bound < 2**24 else np.float64


def reduce_residues(a: np.ndarray, q: int) -> np.ndarray:
    """a mod q, in a's dtype, for an array of integers in a `residue_dtype`
    or in float64 below 2^53.

    float32 and float64 entries are integers below 2^24 and 2^53, so a cast
    to int32 or int64, an integer `%` and a cast back are exact, and several
    times cheaper than a float `%`; other dtypes take `%` as they are."""
    if a.dtype in (np.float32, np.float64):
        return (a.astype(np.int32 if a.dtype == np.float32 else np.int64) % q).astype(a.dtype)
    return a % q


# ---------------------------------------------------------------------------
# field specs and elements
# ---------------------------------------------------------------------------

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
        """a^e for an integer e >= 0, by Horner's rule on e's base-q digits.

        a^(q t + d) = (a^t)^q a^d, and the q-th power is the field's
        Frobenius matrix Q, so each digit below the leading one costs one
        `Q @ r` step and, when nonzero, one product.  The powers a^d of the
        distinct digits d that occur are built in increasing order, each
        from the previous one times a^g for the gap g between them (a^g by
        square-and-multiply, once per distinct gap): no table of all q
        digits, whose cost would grow with q.  For e < q this is plain
        square-and-multiply; 0^0 = 1."""
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        field = self.field
        ring, q = field._ring, field.q
        digits = []  # lowest first
        while e:
            e, d = divmod(e, q)
            digits.append(d)
        if not digits:
            return field.one
        power, gap_power, prev = {}, {}, 0
        for d in sorted(set(digits) - {0}):
            g = d - prev
            if g not in gap_power:
                gap_power[g] = ring.pow(self.vec, g)
            power[d] = gap_power[g] if prev == 0 else ring.mul(power[prev], gap_power[g])
            prev = d
        r = power[digits[-1]]
        for d in reversed(digits[:-1]):
            r = (field._frobenius @ r).astype(np.int64) % q
            if d:
                r = ring.mul(r, power[d])
        return FieldElement(field, r)

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


MAX_Q = 65537  # largest base prime: the searches tabulate range(q)
MAX_L = 4096  # largest extension degree: a reduction table of at most 134 MB


def check_field_size(q: int, l: int | None, l_floor: int = 0):
    """Raise `ValueError` unless q <= `MAX_Q` and l <= `MAX_L`, showing a value
    past 2^64 by its floor 2^e (an l too long to form: None, e = `l_floor`)."""
    def shown(name, x, e):
        return f"{name} = {x}" if e < 64 else f"{name} >= 2^{e}"

    if q > MAX_Q or l is None or l > MAX_L:
        l_shown = shown("l", l, l_floor if l is None else l.bit_length() - 1)
        raise ValueError(f"{shown('q', q, q.bit_length() - 1)}, {l_shown} is too large: "
                         f"need q <= {MAX_Q} and l <= {MAX_L}")


class ExtensionField:
    """F = GF(q^l) with a certified primitive element and trace machinery.

    Construction performs, in order: the modulus search `find_irreducible`,
    whose refusals are the field's (q <= `MAX_Q` and l <= `MAX_L`, keeping
    l (q-1)^2, the bound on every field product's sums, at most 2^44; a
    prime q; l >= 1), the trace form T[i, j] = tr(x^(i+j)) by Newton's identities,
    factorization of q^l - 1 by cyclotomic splitting, and certification of
    the primitive element zeta.  Instances are immutable and safe to share.
    """

    def __init__(self, q: int, l: int):
        self.modulus = find_irreducible(q, l)
        self.q = q
        self.l = l
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
            acc = int(c[l - j :] @ p[i - j : i])  # at most l (q-1)^2 <= 2^44
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
    def _frobenius(self) -> np.ndarray:
        """The field's float64 Frobenius matrix Q (`_QuotientRing.frobenius`),
        Q @ a.vec % q = (a^q).vec, built on first use and read-only."""
        Q = self._ring.frobenius()
        Q.flags.writeable = False
        return Q

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
        """The l x l residue matrix M over B with M @ b.vec = (a * b).vec, in
        `dtype` (`_QuotientRing.mul_matrix`)."""
        return self._ring.mul_matrix(self._check(a).vec, dtype)

    def powers(self, a: FieldElement, count: int) -> tuple[FieldElement, ...]:
        """a^0 .. a^(count-1), by `_QuotientRing.powers` from the seed
        [1, a], in `_exact_float`'s dtype for l (q-1)^2."""
        dtype = _exact_float(self.l * (self.q - 1) ** 2, "power-table")
        rows = self._ring.powers(np.stack([self.one.vec, self._check(a).vec]).astype(dtype), count)
        return tuple(FieldElement(self, row) for row in rows.astype(np.int64))

    def dual_basis(self, basis: Sequence[FieldElement]) -> np.ndarray:
        """Dual basis {mu_j} with tr(basis_i * mu_j) = delta_ij, as the
        l x l int64 matrix whose row j holds mu_j's coefficients.

        Row i of ZT = Z T, with Z the coefficient rows of the basis and T the
        trace form, is the functional a -> tr(basis_i * a), so the coefficient
        rows of the dual basis are the columns of ZT^-1.  Row-reducing
        [ZT | I] with `_rref` gives pivots 0..l-1 exactly when the input is a
        basis (otherwise this raises), and the right block is then ZT^-1,
        copied out so the l x 2l reduction is not kept alive.  The Kronecker
        condition ZT mu^T = I is re-verified exactly before returning.  Both
        products are float64 matrix products, each reduced once by
        `reduce_residues`: their sums of l residue products stay below
        l (q-1)^2 <= 2^44 < 2^53, so they are exact.
        """
        l, q = self.l, self.q
        if len(basis) != l:
            raise ValueError(f"need exactly {l} basis elements")
        Z = np.stack([self._check(b).vec for b in basis])
        ZT = reduce_residues(Z @ self._trace_form.astype(np.float64), q)
        R, pivots = _rref(np.concatenate([ZT, np.eye(l)], axis=1), q)
        if pivots != tuple(range(l)):
            raise ValueError("basis is rank deficient over the base field")
        mu = R[:, l:].T.copy()
        if not np.array_equal(reduce_residues(ZT @ mu.T, q), np.eye(l)):
            raise AssertionError("dual basis failed the Kronecker condition")
        return mu

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


@functools.lru_cache(maxsize=2)
def GF(q: int, l: int) -> ExtensionField:
    """Deterministic, cached construction of GF(q^l).  The cache keeps only
    the two fields built last, a code's own and the GF(q, 1) that `build`
    takes alpha from, since each field holds its (l - 1) x l reduction
    table (134 MB at l = 4096)."""
    return ExtensionField(q, l)


# ---------------------------------------------------------------------------
# construction-time searches and certification
# ---------------------------------------------------------------------------

def find_irreducible(q: int, l: int) -> tuple[int, ...]:
    """First monic irreducible polynomial of degree l over GF(q), in counting
    order of the non-leading coefficient vector (constant term fastest), by
    one path for every degree.  It first refuses, before building anything,
    a field past `check_field_size`, a q that is not prime and l < 1.

    Candidates are taken `_CHUNK` at a time, and `_FactorTable` rejects
    those with an irreducible factor of degree at most D = `_table_degree`
    (q, l) with one matrix product per chunk: small-factor removal before an
    irreducibility test (von zur Gathen & Gerhard, *Modern Computer Algebra*,
    ch. 14).  Its degree-1 factors x - a, x included, cover the candidates
    with a root in GF(q).  The rest go through `_is_irreducible`, Rabin's
    test by the candidate's Frobenius matrix.  The table only skips
    candidates the test would reject, so the modulus is the first
    irreducible either way.

    Each tested candidate is charged `_candidate_products`, (2l + the
    products of x^q) l^2, from one `StepBudget` of `_SEARCH_BUDGET`, and the
    same amount is reserved for the answer up front, so a search too large
    to finish raises `ValueError` naming l, on work done and never on wall
    time.  The test has no early exit, so a rejected candidate costs as much
    as the answer: about 2 l^3.
    """
    check_field_size(q, l)
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if l < 1:
        raise ValueError("extension degree must be >= 1")
    budget = StepBudget(_SEARCH_BUDGET, f"no irreducible polynomial of degree l = {l} over "
                        f"GF({q}) within the search budget of {{total}} coefficient products")
    budget.spend(0, reserve=_candidate_products(q, l))
    table = _FactorTable(_small_irreducibles(q, _table_degree(q, l)), l + 1, q)
    candidates = _counting_order(q, l)
    while chunk := list(itertools.islice(candidates, _CHUNK)):
        coeffs = np.array([digits + (1,) for digits in chunk], dtype=np.int64)
        for f in coeffs[~table.divides(coeffs)]:
            if _is_irreducible(f, q, l, budget):
                return tuple(int(c) for c in f)
    raise AssertionError("irreducible search exhausted the degree")


def _counting_order(q: int, l: int):
    """Every length-l vector of residues mod q in counting order: the vector
    of 0, 1, 2, ... in base q, entry 0 fastest."""
    return (digits[::-1] for digits in itertools.product(range(q), repeat=l))


_CHUNK = 32  # candidates per small-factor product in `find_irreducible`
_TABLE_WIDTH = 4  # coefficients of the small-factor table's irreducibles per degree l


def _table_degree(q: int, l: int) -> int:
    """The largest D <= l/2 whose monic irreducibles of degree 1 to D have
    at most `_TABLE_WIDTH` l coefficients in all; 0 when even the q linear
    ones have more (large q).  The N_d irreducibles of degree d have
    d N_d = q^d - sum_{e | d, e < d} e N_e coefficients, as the roots of
    x^(q^d) - x are the elements of the GF(q^e), e | d."""
    width = {}  # d -> d N_d
    total = D = 0
    while D < l // 2:
        d = D + 1
        width[d] = q**d - sum(w for e, w in width.items() if d % e == 0)
        total += width[d]
        if total > _TABLE_WIDTH * l:
            break
        D = d
    return D


def _small_irreducibles(q: int, D: int) -> list[np.ndarray]:
    """The monic irreducible polynomials of degree 1 to D over GF(q), by
    degree and in counting order within one, by a sieve of Eratosthenes:
    a monic polynomial of degree d is irreducible exactly when no
    irreducible of degree <= d/2 divides it, which `_FactorTable` of the
    ones found so far tests for every monic of degree d at once."""
    found: list[np.ndarray] = []
    for d in range(1, D + 1):
        monic = np.ones((q**d, d + 1), dtype=np.int64)
        monic[:, :d] = np.arange(q**d)[:, None] // q ** np.arange(d) % q
        low = [p for p in found if p.size - 1 <= d // 2]
        found += list(monic[~_FactorTable(low, d + 1, q).divides(monic)])
    return found


class _FactorTable:
    """Which polynomials of degree < `rows` some polynomial of `polys`
    divides, by one matrix product.

    With D the largest degree in `polys`, column block k of the rows x D n
    residue table W belongs to the monic p = polys[k] and holds x^i mod p,
    padded with zeros to D coefficients, for i = 0 .. rows - 1.  For a
    batch of coefficient rows F, F @ W mod q holds f mod p in block k, so a
    block of zeros means p | f.  The product sums `rows` residue products,
    so it runs in `_exact_float`'s dtype for that bound."""

    def __init__(self, polys: Sequence[np.ndarray], rows: int, q: int):
        bound = rows * (q - 1) ** 2
        dtype = _exact_float(bound, "small-factor")
        degree = np.array([p.size - 1 for p in polys], dtype=np.int64)
        n, D = len(polys), int(degree.max(initial=0))
        self.q = q
        self.starts = np.arange(n) * D
        self.table = np.zeros((rows, n * D), dtype=dtype)
        if not polys:
            return
        table = self.table.reshape(rows, n, D)  # a view: block k is table[:, k]
        # Rows 0 .. D one step at a time: multiply by x, then cancel the
        # coefficient at p's degree with p.
        monic = np.zeros((n, D + 1), dtype=dtype)
        for k, p in enumerate(polys):
            monic[k, : p.size] = p
        state = np.zeros_like(monic)
        state[:, 0] = 1
        known = min(rows, D + 1)
        for i in range(known):
            table[i] = state[:, :D]
            state = np.roll(state, 1, axis=1)  # column D is 0, so this shifts up
            state = reduce_residues(state - state[np.arange(n), degree, None] * monic, q)
        # The rest in blocks that double the rows past D: with m = known - 1
        # and c = x^m mod p, x^(m+i) mod p = sum_{a<D} c_a (x^(a+i) mod p),
        # whose rows a + i are known for i <= known - D.  Each sum stays
        # below `bound`.
        while known < rows:
            count = min(known - D, rows - known)
            c = table[known - 1]
            block = sum(c[:, a, None] * table[a + 1 : a + 1 + count] for a in range(D))
            table[known : known + count] = reduce_residues(block, q)
            known += count

    def divides(self, coeffs: np.ndarray) -> np.ndarray:
        """For each row of `coeffs` (`rows` residues each), whether some
        polynomial of the table divides it."""
        if not self.starts.size:
            return np.zeros(len(coeffs), dtype=bool)
        residues = reduce_residues(coeffs.astype(self.table.dtype) @ self.table, self.q)
        return (np.maximum.reduceat(residues, self.starts, axis=1) == 0).any(axis=1)


_SEARCH_BUDGET = 1 << 32  # l^2-weighted products per modulus search, twice GF(3^243)'s


def _candidate_products(q: int, l: int) -> int:
    """What Rabin's test is charged for one candidate of degree l, in
    products of l^2 coefficient products each: x^q mod f by square-and-
    multiply, l to build its Frobenius matrix and l Frobenius steps.

    The build now gathers most columns and doubles the rest, in far fewer
    products than l, but the charge (2l + s) l^2 is kept as a fixed model
    of the work, so that every search the budget refuses stays refused at
    the same candidate."""
    return (2 * l + q.bit_length() + q.bit_count() - 2) * l * l


def _is_irreducible(coeffs: np.ndarray, q: int, l: int, budget: StepBudget) -> bool:
    """Whether the monic f = `coeffs` of degree l >= 1 is irreducible over
    GF(q), by Rabin's test (Rabin, 1980): f is irreducible exactly when
    x^(q^l) = x mod f and gcd(x^(q^(l/p)) - x, f) = 1 for every prime p | l.

    h_d = x^(q^d) mod f comes from h_(d-1) by one matvec with f's Frobenius
    matrix (`_QuotientRing.frobenius`), for d = 1 .. l, keeping h_(l/p).  Q
    is built and stepped in float32 whenever l (q-1)^2 < 2^24 and in
    float64 otherwise (`_exact_float`), each step reduced by
    `reduce_residues`.  A candidate that fails x^(q^l) = x, as most
    reducible ones do, needs no gcd.  There is no early exit, so every
    candidate is charged the same `_candidate_products` from `budget`
    before any work."""
    budget.spend(_candidate_products(q, l))
    Q = _QuotientRing(q, coeffs).frobenius(np.float32)  # float64 where the bound needs it
    h = x = np.eye(1, l, 1, dtype=Q.dtype)[0]  # the polynomial x
    kept = {l // p: x for p in divisors(l) if is_prime(p)}
    for d in range(1, l + 1):
        h = reduce_residues(Q @ h, q)
        if d in kept:
            kept[d] = h
    return bool(np.array_equal(h, x)) and all(_coprime(g - x, coeffs, q) for g in kept.values())


def factor_field_order(q: int, l: int) -> tuple[int, ...]:
    """Prime factorization of q^l - 1 as a sorted multiset.

    q^l - 1 is first split into cyclotomic polynomial values prod_{d|l}
    Phi_d(q), and each (much smaller) piece is factored by `factorize` with
    its d, which trial-divides only in the residue class its primes lie in
    and runs Pollard rho; one `rho_budget()` of steps bounds all the pieces
    together (`ValueError` when they do not split within it).  The result
    multiplies back to q^l - 1 and every entry passes `is_prime`: a proof
    below 3.3e24, and above it a strong-pseudoprime test to 36 bases (12
    fixed, 24 derived from the number), which is not a proof.
    """
    out: list[int] = []
    budget = rho_budget()
    for d in divisors(l):
        out += factorize(cyclotomic_value(d, q), d, budget=budget)
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
    stored factorization: zeta^((q^l-1)/p) != 1 for every prime factor p,
    checked for ascending p.

    Each check goes through a subfield norm.  With d_p the least divisor d
    of l with p | q^d - 1, a^((q^l-1)/p) = N_d(a)^((q^d-1)/p), where
    N_d(a) = a^((q^l-1)/(q^d-1)) is the norm of a to GF(q^d); the last
    power has at most d base-q digits.  A candidate's norms are built on
    first use, each from the norm to the least multiple m of d that divides
    l and exceeds d (N_l(a) = a): N_d = N_m^((q^m-1)/(q^d-1)), an exponent
    whose base-q digits are 1 at the multiples of d, so `__pow__` takes
    m - d Frobenius steps and m/d - 1 products for it.  The checks and
    their outcomes are those of the direct powers, in fewer products.

    For l > 1 the scan starts at the first non-constant candidate (counter
    q): a constant lies in B*, whose order q - 1 is below q^l - 1."""
    q, l = field.q, field.l
    divs = divisors(l)
    # N_d from N_m: (m, the exponent (q^m - 1)/(q^d - 1)) for each d < l
    step = {}
    for d in divs[:-1]:
        m = min(m for m in divs if m > d and m % d == 0)
        step[d] = m, (q**m - 1) // (q**d - 1)
    checks = []  # (d_p, (q^d_p - 1)/p) for ascending p
    for p in sorted(set(field.order_factorization)):
        d = next(d for d in divs if pow(q, d, p) == 1)
        checks.append((d, (q**d - 1) // p))

    def norm(norms, d):
        if d not in norms:
            m, e = step[d]
            norms[d] = norm(norms, m) ** e
        return norms[d]

    start = q if l > 1 else 1
    for digits in itertools.islice(_counting_order(q, l), start, None):
        norms = {l: FieldElement(field, digits)}
        if all(norm(norms, d) ** e != field.one for d, e in checks):
            return norms[l]
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

