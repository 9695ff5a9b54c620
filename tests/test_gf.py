import gc
import itertools
import math
import os
import random
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import field_oracle
from field_oracle import frobenius_matrix, irreducibles, poly_gcd, poly_mul

from rackrepair import gf
from rackrepair.gf import (
    GF,
    FieldElement,
    factor_field_order,
    find_irreducible,
    find_primitive_element,
    rank_over_base,
    reduce_residues,
)
from rackrepair.numbertheory import StepBudget, cyclotomic_value, divisors, factorize


def all_elements(field):
    ranges = [range(field.q)] * field.l
    return [field.element(c) for c in itertools.product(*ranges)]


def brute_force_span_size(elems):
    """Oracle: enumerate every B-linear combination and count distinct values."""
    field = elems[0].field
    span = set()
    for coeffs in itertools.product(range(field.q), repeat=len(elems)):
        acc = field.zero
        for c, e in zip(coeffs, elems):
            acc = acc + c * e
        span.add(acc)
    return len(span)


# Fields beyond q = 3, with how many elements the brute-force span oracle
# can take there: it enumerates q^count combinations, kept near 2,000.
SMALL_FIELDS = {(2, 5): 8, (5, 3): 4, (7, 2): 3, (13, 2): 3}


def dependent_elements(field, rng, count):
    """`count` elements of the B-span of fewer random generators, one of
    them zero and one a repeat, shuffled so that dependent elements fall
    between independent ones."""
    gens = [field.random_element(rng) for _ in range(rng.randrange(1, count))]
    elems = [field.zero]
    while len(elems) < count - 1:
        acc = field.zero
        for g in gens:
            acc = acc + rng.randrange(field.q) * g
        elems.append(acc)
    elems.append(rng.choice(elems))
    rng.shuffle(elems)
    return elems


def trace_by_frobenius_sum(a):
    """Oracle: tr(a) = a + a^q + ... + a^(q^(l-1)) by explicit powering."""
    field = a.field
    acc = field.zero
    term = a
    for _ in range(field.l):
        acc = acc + term
        term = term**field.q
    assert all(c == 0 for c in acc.coeffs[1:])
    return acc.coeffs[0]


# ---------------------------------------------------------------------------
# construction-time searches
# ---------------------------------------------------------------------------

def test_prime_field_rejects_composites():
    with pytest.raises(ValueError, match="4 is not prime"):
        GF(4, 1)
    assert GF(3, 1).q == 3
    # q = 2^31 + 11 is prime, but beyond the largest base prime 65537
    with pytest.raises(ValueError, match="q = 2147483659"):
        GF(2147483659, 2)


def smallest_generator(q):
    """Oracle: the least g in [1, q) whose order is q - 1, by modular powers."""
    checks = [(q - 1) // p for p in set(factorize(q - 1))]
    return next(g for g in range(1, q) if all(pow(g, e, q) != 1 for e in checks))


def test_prime_field_zeta_is_the_smallest_generator():
    # build takes the generator behind alpha from GF(q, 1).zeta
    primes = [q for q in range(2, 1200) if all(q % d for d in range(2, int(q**0.5) + 1))]
    for q in [*primes, 65537]:
        assert GF(q, 1).zeta.coeffs == (smallest_generator(q),)
    assert [smallest_generator(q) for q in (2, 3, 7)] == [1, 2, 3]


def test_field_size_limits():
    # refused before the modulus search or the reduction table allocates
    # anything: l = 2^24 would take a 2 PiB table, and q = 10^9 + 7 a
    # tuple of q residues in the counting-order search
    for q, l in ((3, 2**24), (3, gf.MAX_L + 1), (1_000_000_007, 8), (gf.MAX_Q + 2, 1)):
        with pytest.raises(ValueError, match=f"q = {q}, l = {l} is too large"):
            GF(q, l)
    assert gf.MAX_L * (gf.MAX_Q - 1) ** 2 <= 2**44


def test_gf_cache_keeps_two_fields():
    # a field holds its (l - 1) x l reduction table, so the cache keeps only
    # the two fields built last: a code's own and GF(q, 1)
    GF.cache_clear()
    ref = weakref.ref(GF(3, 5))
    assert GF(3, 5) is ref()
    GF(3, 6), GF(3, 1)
    gc.collect()
    assert ref() is None
    assert GF.cache_info().currsize == 2


def test_find_irreducible_refuses_an_oversized_field():
    # the search is every field's gate: it refuses a field beyond the
    # limits before it builds anything, q past MAX_Q at any degree included
    for q, l in ((65539, 2), (gf.MAX_Q + 2, 1)):
        with pytest.raises(ValueError, match=f"^q = {q}, l = {l} is too large: "
                                             f"need q <= {gf.MAX_Q} and l <= {gf.MAX_L}$"):
            find_irreducible(q, l)


BIG_Q_SEARCH = """import sys
from rackrepair.gf import find_irreducible
try:
    find_irreducible(1_000_000_007, int(sys.argv[1]))
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize("l", [1, 8])
def test_find_irreducible_refusal_is_bounded(l):
    # q = 10^9 + 7 is refused before the counting order tabulates range(q):
    # run in a child capped at 512 MB of address space, where tabulating it
    # raises MemoryError instead
    cap = 512 << 20
    src = str(Path(gf.__file__).resolve().parent.parent)
    got = subprocess.run(
        [sys.executable, "-c", BIG_Q_SEARCH, str(l)], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (got.returncode, got.stderr) == (0, "")
    assert got.stdout == f"q = 1000000007, l = {l} is too large: need q <= 65537 and l <= 4096\n"


@pytest.mark.parametrize("q", [2, 3, 13, 65537])
def test_degree_one_takes_the_one_search(q, monkeypatch):
    # degree 1 has no path of its own: Rabin's test passes its first
    # candidate, x itself
    tested = []
    rabin = gf._is_irreducible
    monkeypatch.setattr(gf, "_is_irreducible", lambda *args: tested.append(1) or rabin(*args))
    assert find_irreducible(q, 1) == (0, 1)
    assert len(tested) == 1


def test_find_irreducible_known_values():
    assert find_irreducible(3, 1) == (0, 1)  # any monic linear works; x is first
    assert find_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    assert find_irreducible(2, 3) == (1, 1, 0, 1)  # x^3 + x + 1


def test_find_irreducible_has_no_root():
    for q, l in ((3, 2), (3, 4), (2, 3), (5, 3)):
        coeffs = find_irreducible(q, l)
        assert coeffs[-1] == 1 and len(coeffs) == l + 1
        for c in range(q):
            acc = 0
            for cc in reversed(coeffs):
                acc = (acc * c + cc) % q
            assert acc != 0


def test_find_irreducible_matches_exhaustive_factor_check():
    # degree 2 and 3: irreducible iff no root, so cross-check the full search
    q, l = 3, 3
    coeffs = find_irreducible(q, l)
    field = GF(q, l)
    # no element of GF(q) is a root, and f is the minimal polynomial of x
    x = field.monomial(1)
    acc = field.zero
    for cc in reversed(coeffs):
        acc = acc * x + field.scalar(cc)
    assert acc.is_zero()


# the fields the search is checked on: l = 16 to 128 at q = 2 to 13, the
# small degrees the table decides alone, and two fields whose q linear
# factors alone pass the table's column budget
ORACLE_FIELDS = [(2, 2), (3, 2), (5, 3), (2, 64), (2, 128), (3, 32), (3, 64), (3, 81), (3, 128),
                 (5, 32), (5, 64), (7, 27), (7, 64), (13, 16), (13, 64), (257, 4), (65537, 2)]


@pytest.mark.parametrize("q,l", ORACLE_FIELDS, ids=[f"{q}^{l}" for q, l in ORACLE_FIELDS])
def test_find_irreducible_matches_per_degree_oracle(q, l):
    # Rabin's test picks the same modulus as one gcd per degree
    assert find_irreducible(q, l) == next(irreducibles(q, l))


def test_find_irreducible_pinned_large_degrees():
    # l = 243 and 256, where the search takes 70 and 32 candidates to Rabin's
    # test, about 47% and 25% of its budget
    assert find_irreducible(3, 243) == (1, 0, 0, 1, 0, 1, 1) + (0,) * 236 + (1,)
    assert find_irreducible(3, 256) == (2, 0, 2, 1, 1, 1) + (0,) * 250 + (1,)


def test_search_budget(monkeypatch):
    # Rabin's test charges every candidate the same l^2-weighted products
    # before any work: at degree 64 over GF(3), x^3 mod f (2 products), 64
    # to build its Frobenius matrix and 64 Frobenius steps
    f = find_irreducible(3, 64)
    budget = StepBudget(gf._SEARCH_BUDGET, "{total}")
    assert gf._is_irreducible(np.array(f), 3, 64, budget)
    assert gf._SEARCH_BUDGET - budget.left == (2 * 64 + 2) * 64**2 == 532_480
    assert [gf._candidate_products(q, 64) // 64**2 - 2 * 64 for q in (2, 3, 13)] == [1, 2, 5]
    # l = 1296 is refused before any candidate: its reserve passes 2^32
    assert gf._candidate_products(3, 1296) == 4_356_923_904 > gf._SEARCH_BUDGET
    # a budget that cannot pay for the answer's own test is refused before
    # any candidate; one that runs out midway raises too: 10^6 pays for the
    # first of the six candidates that reach the test and refuses the second
    tested = []
    rabin = gf._is_irreducible
    monkeypatch.setattr(gf, "_is_irreducible", lambda *args: tested.append(1) or rabin(*args))
    monkeypatch.setattr(gf, "_SEARCH_BUDGET", 2 * 64**3 - 1)
    with pytest.raises(ValueError, match=r"^no irreducible polynomial of degree l = 64 over "
                                         r"GF\(3\) within the search budget of 524287 "):
        find_irreducible(3, 64)
    assert not tested
    monkeypatch.setattr(gf, "_SEARCH_BUDGET", 10**6)
    with pytest.raises(ValueError, match=r"degree l = 64 over GF\(3\) within the search budget of 1000000"):
        find_irreducible(3, 64)
    assert len(tested) == 2


@pytest.mark.parametrize("q", [2, 3, 13])
@pytest.mark.parametrize("s", [0, 1, 8, 15])
def test_reduction_table_matches_division(q, s):
    # row j of the reduction table is x^(l+j) mod f, for f - x^l of degree
    # s = 0, 1, l/2 and l - 1: rows j < l - s are one gather, the rest the
    # recurrence
    l = 16
    rng = random.Random(100 * q + s)
    f = np.zeros(l + 1, dtype=np.int64)
    f[:s] = [rng.randrange(q) for _ in range(s)]
    f[s], f[l] = rng.randrange(1, q), 1
    red = gf._QuotientRing(q, f).reduction
    assert red.shape == (l - 1, l)
    for j in range(l - 1):
        power = np.zeros(l + j + 1, dtype=np.int64)
        power[-1] = 1
        rem = field_oracle.poly_divmod(power, f, q)[1]
        assert np.array_equal(red[j], np.pad(rem, (0, l - rem.size))), j


# products of degree l = 40 = 2^3 5, as the (degree, index in counting
# order) of each irreducible factor: with a factor whose degree does not
# divide 40, x^(q^40) != x; two distinct factors of degree 20 pass that and
# fail the gcd at l/2 = 20, five of degree 8 the gcd at l/5 = 8 alone, and
# the square of one of degree 20 fails x^(q^40) = x, as x^(q^40) - x is
# squarefree
PRODUCTS = {"5+35": ((5, 0), (35, 0)), "8+32": ((8, 0), (32, 0)), "9+31": ((9, 0), (31, 0)),
            "16+24": ((16, 0), (24, 0)), "20+20": ((20, 0), (20, 1)),
            "5x8": tuple((8, i) for i in range(5)), "20^2": ((20, 0), (20, 0))}


@pytest.mark.parametrize("name", PRODUCTS)
def test_rabin_rejects_products(name):
    q, l = 3, 40
    factors = [np.array(next(itertools.islice(irreducibles(q, d), i, None))) for d, i in PRODUCTS[name]]
    f = np.array([1])
    for g in factors:
        f = poly_mul(f, g, q)
    assert f.size == l + 1 and f[-1] == 1
    x = np.eye(1, l, 1, dtype=np.int64)[0]
    h, Q = x, frobenius_matrix(f, q)
    for _ in range(l):
        h = Q @ h % q
    assert np.array_equal(h, x) == (name in ("20+20", "5x8"))  # the gcd's cases
    budget = StepBudget(gf._SEARCH_BUDGET, "{total}")
    assert not gf._is_irreducible(f, q, l, budget)
    assert gf._is_irreducible(np.array(next(irreducibles(q, l))), q, l, budget)


def mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


# one prime factor of l (8 = 2^3, 9 = 3^2), two (6, 12 = 2^2 3), repeated
# ones (8, 9, 12), over GF(3) and GF(2)
EXHAUSTIVE = [(3, 6), (3, 8), (3, 9), (2, 8), (2, 12)]


@pytest.mark.parametrize("q,l", EXHAUSTIVE, ids=[f"{q}^{l}" for q, l in EXHAUSTIVE])
def test_rabin_matches_oracle_on_every_candidate(q, l):
    # every monic candidate of degree l, with no small-factor table in front:
    # Rabin's verdicts are the oracle's, and the irreducibles number
    # (1/l) sum_(d | l) mu(d) q^(l/d) (Gauss)
    budget = StepBudget(10**12, "{total}")
    count = 0
    for digits in itertools.product(range(q), repeat=l):
        f = np.array(digits[::-1] + (1,), dtype=np.int64)
        verdict = gf._is_irreducible(f, q, l, budget)
        assert verdict == field_oracle.is_irreducible(f, q), f
        count += verdict
    assert count == sum(mobius(d) * q ** (l // d) for d in divisors(l)) // l
    assert 10**12 - budget.left == q**l * gf._candidate_products(q, l)


def test_coprime_matches_oracle_gcd():
    # seeded pairs over q = 2, 3, 5, 13: random ones, pairs given a common
    # factor, zeros, constants and trailing zero coefficients
    rng = random.Random(1301)

    def poly(deg, q):
        return np.array([rng.randrange(q) for _ in range(deg + 1)], dtype=np.int64)

    cases = []
    for q in (2, 3, 5, 13):
        for _ in range(40):
            a, b = poly(rng.randrange(0, 30), q), poly(rng.randrange(0, 30), q)
            if rng.random() < 0.5:
                common = poly(rng.randrange(1, 5), q)
                a, b = poly_mul(a, common, q), poly_mul(b, common, q)
            cases.append((a, b, q))
        f = poly(12, q)
        zero = np.zeros(6, dtype=np.int64)
        cases += [(zero, f, q), (f, zero, q), (zero, zero, q), (zero[:0], f, q),
                  (np.array([2 % q or 1, 0, 0]), f, q), (np.concatenate([f, zero]), f, q)]
    seen = set()
    for a, b, q in cases:
        expected = poly_gcd(a, b, q).size == 1
        a0, b0 = a.copy(), b.copy()
        assert gf._coprime(a, b, q) == expected
        assert np.array_equal(a, a0) and np.array_equal(b, b0)  # inputs untouched
        seen.add(expected)
    assert seen == {True, False}


def test_ring_pow_products(monkeypatch):
    # x -> x^3 is two products: no product by one, no square after the last bit
    field = GF(3, 8)
    ring, a = field._ring, field.zeta.vec
    calls = []
    mul = gf._QuotientRing.mul
    monkeypatch.setattr(gf._QuotientRing, "mul", lambda self, u, v: calls.append(1) or mul(self, u, v))
    assert np.array_equal(ring.pow(a, 3), mul(ring, mul(ring, a, a), a))
    assert len(calls) == 2
    acc = field.one.vec
    for e in range(20):
        assert np.array_equal(ring.pow(a, e), acc)
        acc = mul(ring, acc, a)


# the fields the suite builds elsewhere, l = 1 included
POWER_FIELDS = [(2, 1), (3, 1), (65537, 1), (2, 3), (2, 5), (2, 16), (3, 2), (3, 4), (3, 8),
                (3, 64), (3, 128), (5, 2), (5, 3), (5, 32), (7, 2), (13, 2), (13, 64), (65537, 4)]


def base_q_digits(e, q):
    digits = []
    while e:
        e, d = divmod(e, q)
        digits.append(d)
    return digits


def int64_frobenius(field):
    """Q in int64, column j - 1 times the int64 multiplication matrix of x^q."""
    l, q = field.l, field.q
    Q = np.zeros((l, l), dtype=np.int64)
    Q[0, 0] = 1
    if l > 1:
        step = field.mul_matrix(FieldElement(field, field._ring.pow(field.monomial(1).vec, q)))
        for j in range(1, l):
            Q[:, j] = step @ Q[:, j - 1] % q
    return Q


@pytest.mark.parametrize("q,l", POWER_FIELDS, ids=[f"{q}^{l}" for q, l in POWER_FIELDS])
def test_frobenius_matrix_matches_oracle(q, l):
    # Q @ a = a^q, column j = x^(qj) mod f, and l steps are the identity;
    # the float64 Q holds the residues of the int64 build
    field = GF(q, l)
    Q = field._frobenius
    assert Q.dtype == np.float64 and not Q.flags.writeable
    assert np.array_equal(Q, frobenius_matrix(np.array(field.modulus, dtype=np.int64), q))
    assert np.array_equal(Q, int64_frobenius(field))
    rng = random.Random(q + l)
    for _ in range(3):
        a = field.random_element(rng)
        r = a.vec
        for _ in range(l):
            r = Q @ r % q
        assert np.array_equal(r, a.vec)


RING_FIELDS = [(2, 16), (3, 64), (13, 64), (257, 4), (65537, 2), (65537, 4)]


@pytest.mark.parametrize("q,l", RING_FIELDS, ids=[f"{q}^{l}" for q, l in RING_FIELDS])
def test_ring_frobenius_matches_square_and_multiply(q, l):
    # Q @ h % q = h^q mod f against `_QuotientRing.pow`, for the field's
    # modulus and for a seeded monic f that need not be irreducible
    rng = random.Random(7 * q + l)
    for f in (find_irreducible(q, l), [rng.randrange(q) for _ in range(l)] + [1]):
        ring = gf._QuotientRing(q, np.array(f))
        Q = ring.frobenius()
        assert Q.dtype == np.float64 and Q.shape == (l, l)
        for _ in range(4):
            h = np.array([rng.randrange(q) for _ in range(l)], dtype=np.int64)
            assert np.array_equal(Q @ h % q, ring.pow(h, q))


def test_ring_frobenius_float64_bound():
    # at l = 2, the prime q = 2^26 - 5 keeps l (q-1)^2 below 2^53, exact in
    # float64; the next prime, 2^26 + 15, passes it, and so does exactly
    # 2^53 at q = 2^26 + 1: the build raises before any product
    f = np.array([1, 0, 1])
    q = 2**26 - 5
    ring = gf._QuotientRing(q, f)
    Q = ring.frobenius()
    rng = random.Random(53)
    for _ in range(8):
        h = np.array([rng.randrange(q) for _ in range(2)], dtype=np.int64)
        assert np.array_equal((Q @ h).astype(np.int64) % q, ring.pow(h, q))
    for q, bound in ((2**26 + 15, 2 * (2**26 + 14) ** 2), (2**26 + 1, 2**53)):
        with pytest.raises(AssertionError, match=f"^Frobenius products of up to {bound} overflow float64$"):
            gf._QuotientRing(q, f).frobenius()


# (q, l, x^q by square-and-multiply first, doublings): every column
# gathered from the power table (l = 1, or q = 2: x^(2j) has degree at most
# 2l - 2), one doubling, several, and q > 2l - 2, where x^q comes first
FROBENIUS_BUILDS = [(2, 1, False, 0), (3, 1, False, 0), (2, 2, False, 0), (3, 2, True, 0),
                    (2, 64, False, 0), (2, 128, False, 0), (3, 128, False, 1), (13, 64, False, 3),
                    (7, 27, False, 2), (257, 4, True, 1), (65537, 2, True, 0), (65537, 4, True, 1)]


@pytest.mark.parametrize("q,l,squared,doublings", FROBENIUS_BUILDS,
                         ids=[f"{q}^{l}" for q, l, _, _ in FROBENIUS_BUILDS])
def test_frobenius_build_matches_oracle(monkeypatch, q, l, squared, doublings):
    # the gathered and doubled Q against the column-by-column oracle, for
    # the field's modulus and a seeded monic f, in float64 and, where
    # l (q-1)^2 < 2^24, in float32; a float32 request past that bound is
    # built in float64
    calls = []
    for name in ("pow", "mul_matrix"):
        method = getattr(gf._QuotientRing, name)
        monkeypatch.setattr(gf._QuotientRing, name,
                            lambda self, *a, name=name, method=method: calls.append(name) or method(self, *a))
    rng = random.Random(q * l + 5)
    narrow = np.float32 if l * (q - 1) ** 2 < 2**24 else np.float64
    for f in (find_irreducible(q, l), [rng.randrange(q) for _ in range(l)] + [1]):
        f = np.array(f, dtype=np.int64)
        expected = frobenius_matrix(f, q)
        for dtype, built in ((np.float64, np.float64), (np.float32, narrow)):
            calls.clear()
            Q = gf._QuotientRing(q, f).frobenius(dtype)
            assert Q.dtype == built and Q.flags.c_contiguous
            assert np.array_equal(Q, expected)
            assert calls == ["pow"] * squared + ["mul_matrix"] * doublings


def test_exact_float_rule():
    # float32 exactly when the bound is below 2^24, float64 below 2^53, and an
    # AssertionError naming the products from 2^53 on; the Frobenius build
    # and the small-factor table both take it: at l = 2, q = 2897 gives
    # 2 (q-1)^2 = 2^24 - 3584 and the next prime, 2903, gives 2^24 + 65992
    assert gf._exact_float(2**24 - 1, "x") == np.float32
    assert gf._exact_float(2**24, "x") == np.float64
    assert gf._exact_float(2**53 - 1, "x") == np.float64
    with pytest.raises(AssertionError, match=f"^x products of up to {2**53} overflow float64$"):
        gf._exact_float(2**53, "x")
    f = np.array([2, 0, 1])  # x^2 + 2
    rng = random.Random(24)
    for q, dtype in ((2897, np.float32), (2903, np.float64)):
        assert (2 * (q - 1) ** 2 < 2**24) == (dtype == np.float32)
        ring = gf._QuotientRing(q, f)
        Q = ring.frobenius(np.float32)
        assert Q.dtype == dtype
        for _ in range(8):
            h = np.array([rng.randrange(q) for _ in range(2)], dtype=np.int64)
            assert np.array_equal(reduce_residues(Q @ h.astype(dtype), q), ring.pow(h, q))
        assert gf._FactorTable([np.array([1, 1])], 2, q).table.dtype == dtype
    q = 2**26 + 15
    with pytest.raises(AssertionError, match=f"^small-factor products of up to {2 * (q - 1) ** 2} overflow float64$"):
        gf._FactorTable([np.array([1, 1])], 2, q)


def test_field_powers_match_products():
    # `ExtensionField.powers` doubles from [1, a]: every row against the
    # running product, at count 1, 2, a power of two and one past it
    for q, l in ((3, 128), (13, 64), (65537, 4)):
        field = GF(q, l)
        a = field.random_element(random.Random(q + l))
        for count in (1, 2, 64, 65):
            powers = field.powers(a, count)
            expected = [field.one]
            while len(expected) < count:
                expected.append(expected[-1] * a)
            assert powers == tuple(expected)


@pytest.mark.parametrize("q,l", POWER_FIELDS, ids=[f"{q}^{l}" for q, l in POWER_FIELDS])
def test_pow_matches_square_and_multiply(q, l):
    # the base-q Horner power against `_QuotientRing.pow`, the oracle
    field = GF(q, l)
    order = field.order
    exponents = [0, 1, q - 1, q, *(order // p for p in set(field.order_factorization)),
                 order - 1, order, 3 * q**80 + order // 2 + 7]
    rng = random.Random(q * l + 1)
    bases = [field.zero, field.one, field.zeta] + [field.random_element(rng) for _ in range(2)]
    for a in bases:
        for e in exponents:
            assert np.array_equal((a**e).vec, field._ring.pow(a.vec, e)), (a, e)


# Ring products that build Q: (13, 64) gathers x^(13j) for j < 10 and
# doubles 10 -> 20 -> 40 -> 64, one product of r^m each; at (65537, 4),
# q > 2l - 2, x^q takes 16 squarings and 1 multiply first, then one
# doubling 2 -> 4.  Building Q column by column would take l - 1 more.
@pytest.mark.parametrize("q,l,builds", [(13, 64, 3), (65537, 4, 17 + 1)], ids=["13-64", "65537-4"])
def test_pow_products(monkeypatch, q, l, builds):
    # a certification power takes at most l - 1 products for its digits and
    # square-and-multiply per distinct gap between them, and building Q
    # takes exactly the products of x^q when q > 2l - 2 and one per
    # doubling: no table of a^d for every d < q
    field = GF(q, l)
    a = field.zeta
    calls = []
    mul = gf._QuotientRing.mul
    monkeypatch.setattr(gf._QuotientRing, "mul", lambda self, u, v: calls.append(1) or mul(self, u, v))
    monkeypatch.delitem(field.__dict__, "_frobenius", raising=False)
    field._frobenius
    assert len(calls) == builds
    for p in sorted(set(field.order_factorization)):
        e = field.order // p
        digits = base_q_digits(e, q)
        distinct = sorted(set(digits) - {0})
        gaps = {d - c for c, d in zip([0, *distinct], distinct)}
        chain = sum(2 * g.bit_length() for g in gaps) + len(distinct)
        calls.clear()
        power = a**e
        horner = len(calls)
        calls.clear()
        assert np.array_equal(field._ring.pow(a.vec, e), power.vec)
        assert horner <= l + chain and horner < len(calls), (p, horner, len(calls))


def test_factor_field_order_examples():
    assert factor_field_order(3, 1) == (2,)
    assert factor_field_order(3, 8) == (2, 2, 2, 2, 2, 5, 41)
    assert factor_field_order(2, 4) == (3, 5)


def test_factor_field_order_product():
    for q, l in ((3, 8), (3, 16), (2, 12), (5, 4)):
        fac = factor_field_order(q, l)
        prod = 1
        for p in fac:
            prod *= p
        assert prod == q**l - 1


def test_primitive_element_certified():
    for q, l in ((3, 1), (3, 2), (2, 3), (3, 8), (65537, 4)):
        field = GF(q, l)
        zeta = field.zeta
        assert zeta ** (q**l - 1) == field.one
        for p in set(field.order_factorization):
            assert zeta ** ((q**l - 1) // p) != field.one
        assert find_primitive_element(field) == zeta  # deterministic
    # the scan skips the q constants, which cannot have order q^l - 1
    assert GF(65537, 4).zeta.coeffs == (4, 1, 0, 0)


# the fields whose certification is checked against the oracles: the
# search's fields, q = 65537, and l with odd prime factors (36, 48, 72)
CERTIFY_FIELDS = ORACLE_FIELDS + [(65537, 4), (13, 36), (7, 48), (3, 72)]


@pytest.mark.parametrize("q,l", CERTIFY_FIELDS, ids=[f"{q}^{l}" for q, l in CERTIFY_FIELDS])
def test_factor_field_order_matches_oracle(q, l):
    # each Phi_d(q) factored in its residue class, against the odd-number
    # trial division and y^2 + c rho of `field_oracle.factorize`
    pieces = []
    for d in divisors(l):
        n = cyclotomic_value(d, q)
        expected = field_oracle.factorize(n)
        assert factorize(n, d) == expected, d
        pieces += expected
    assert factor_field_order(q, l) == tuple(sorted(pieces))
    assert math.prod(pieces) == q**l - 1


@pytest.mark.parametrize("q,l", CERTIFY_FIELDS, ids=[f"{q}^{l}" for q, l in CERTIFY_FIELDS])
def test_primitive_element_matches_direct_oracle(q, l):
    # the first candidate (counting order, constants skipped for l > 1, as
    # their order divides q - 1) with a^((q^l-1)/p) != 1 for every prime p,
    # each power by square-and-multiply on the whole field
    field = GF(q, l)
    order = q**l - 1
    primes = sorted({p for d in divisors(l) for p in field_oracle.factorize(cyclotomic_value(d, q))})
    ring, one = field._ring, field.one.vec
    for counter in itertools.count(q if l > 1 else 1):
        vec = np.array([counter // q**i % q for i in range(l)], dtype=np.int64)
        if all(not np.array_equal(ring.pow(vec, order // p), one) for p in primes):
            break
    assert find_primitive_element(field).coeffs == tuple(int(c) for c in vec)
    assert field.zeta.coeffs == tuple(int(c) for c in vec)


@pytest.mark.parametrize("q,l,most", [(13, 64, 600), (3, 128, 200)])
def test_certification_products(monkeypatch, q, l, most):
    # the checks go through subfield norms: direct powers a^((q^l-1)/p)
    # take 1366 products at (13, 64) and 662 at (3, 128)
    field = GF(q, l)
    field._frobenius  # built beforehand: only the certification is counted
    calls = []
    mul = gf._QuotientRing.mul
    monkeypatch.setattr(gf._QuotientRing, "mul", lambda self, u, v: calls.append(1) or mul(self, u, v))
    assert find_primitive_element(field) == field.zeta
    assert len(calls) <= most, len(calls)


def test_table_degree_and_width():
    # the irreducibles of degree <= D have at most `_TABLE_WIDTH` l
    # coefficients in all, those of degree <= D + 1 would not (or D = l/2);
    # past the budget D = 0
    for q, l in ORACLE_FIELDS + [(3, 243), (3, 256), (65537, 4)]:
        D = gf._table_degree(q, l)
        if D:
            polys = gf._small_irreducibles(q, D)
            assert sum(p.size - 1 for p in polys) <= gf._TABLE_WIDTH * l
        if D < l // 2:
            more = sum(d * len(list(oracle_irreducibles(q, d))) for d in range(1, D + 2))
            assert more > gf._TABLE_WIDTH * l, (q, l)
    assert gf._table_degree(257, 4) == gf._table_degree(65537, 2) == 0
    assert gf._table_degree(3, 128) == 5 and gf._table_degree(13, 64) == 2


def oracle_irreducibles(q, d):
    """Every monic irreducible of degree d >= 1 in counting order: the q
    linear ones x + a, or `field_oracle.irreducibles`."""
    if d == 1:
        return [(a, 1) for a in range(q)]
    return list(irreducibles(q, d))


# every field with l >= 2 whose modulus the suite searches for, here or
# through `GF` in the other test files
SEARCH_FIELDS = [(2, 2), (2, 3), (2, 5), (2, 8), (2, 16), (2, 32), (2, 64), (2, 128), (3, 2),
                 (3, 3), (3, 4), (3, 8), (3, 9), (3, 16), (3, 32), (3, 64), (3, 72), (3, 81),
                 (3, 128), (3, 243), (3, 256), (5, 2), (5, 3), (5, 4), (5, 8), (5, 16), (5, 32),
                 (5, 64), (7, 2), (7, 8), (7, 27), (7, 32), (7, 48), (7, 64), (13, 2), (13, 4),
                 (13, 8), (13, 16), (13, 36), (13, 64), (257, 4), (4099, 2), (65537, 2),
                 (65537, 4)]


@pytest.mark.parametrize("q,D", sorted({(q, gf._table_degree(q, l)) for q, l in SEARCH_FIELDS}))
def test_small_irreducibles_match_oracle(q, D):
    # the table's sieve of Eratosthenes finds exactly the irreducibles of
    # each degree <= D, in counting order
    polys = [tuple(int(c) for c in p) for p in gf._small_irreducibles(q, D)]
    assert polys == [p for d in range(1, D + 1) for p in oracle_irreducibles(q, d)]


@pytest.mark.parametrize("q,l,count,dtype", [(2, 64, 60, np.float32), (3, 128, 60, np.float32),
                                             (13, 64, 60, np.float32), (367, 128, 12, np.float64)])
def test_factor_table_matches_division(q, l, count, dtype):
    # `divides` says whether some small irreducible leaves remainder 0 on
    # seeded monic candidates, products of small factors among them; at
    # (367, 128) the products pass 2^24 and run in float64
    polys = gf._small_irreducibles(q, gf._table_degree(q, l))
    table = gf._FactorTable(polys, l + 1, q)
    assert table.table.dtype == dtype
    rng = random.Random(q * l)
    rows = []
    for _ in range(count):
        f = np.array([rng.randrange(q) for _ in range(l)] + [1], dtype=np.int64)
        if rng.random() < 0.3:
            p = rng.choice(polys)
            g = np.array([rng.randrange(q) for _ in range(l - p.size + 1)] + [1], dtype=np.int64)
            f = poly_mul(p, g, q)
        rows.append(f)
    coeffs = np.stack(rows)
    expected = [any(field_oracle.poly_divmod(f, p, q)[1].size == 0 for p in polys) for f in rows]
    assert table.divides(coeffs).tolist() == expected
    assert True in expected and False in expected


def test_primitive_element_small_cases():
    assert GF(3, 1).zeta == GF(3, 1).scalar(2)  # 2 generates GF(3)*
    f23 = GF(2, 3)
    x = f23.monomial(1)
    assert x != f23.one and x**7 == f23.one  # order 7, as 7 is prime


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------

def test_hand_reduction_gf9():
    field = GF(3, 2)  # modulus x^2 + 1
    x = field.monomial(1)
    assert (x * x).coeffs == (2, 0)  # x^2 = -1 = 2
    assert (x**2).coeffs == (2, 0)


def test_field_laws_exhaustive_gf9():
    field = GF(3, 2)
    elems = all_elements(field)
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in elems:
        assert a + field.zero == a
        assert a * field.one == a
        assert (a - a).is_zero()
        if not a.is_zero():
            assert a * a.inverse() == field.one
            assert a / a == field.one


def test_field_laws_randomized_gf3_8():
    field = GF(3, 8)
    rng = random.Random(3)
    for _ in range(50):
        a, b, c = (field.random_element(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - b == -(b - a)
        if not b.is_zero():
            assert (a / b) * b == a


def test_mul_matrix_matches_product():
    # column j of M(a) is a * x^j, so M(a) @ b.vec is the product's vector
    for q, l in [*SMALL_FIELDS, (3, 1), (3, 64), (13, 64)]:
        field = GF(q, l)
        rng = random.Random(q * l)
        for _ in range(5):
            a, b = field.random_element(rng), field.random_element(rng)
            M = field.mul_matrix(a)
            assert M.shape == (l, l) and M.dtype == np.int64
            assert np.array_equal(M @ b.vec % q, (a * b).vec)
            assert np.array_equal(field.mul_matrix(a, np.float32), M)
            assert np.array_equal(field.mul_matrix(a, object), M)
    field = GF(4099, 2)
    assert np.array_equal(field.mul_matrix(field.scalar(5)), 5 * np.eye(2, dtype=np.int64))


def test_reduce_residues_exact():
    # float32 goes through int32: exact for every integer below 2^24, negative
    # ones included, and the dtype is kept
    a = np.array([0, 1, -1, -(2**24 - 1), 2**24 - 1, 2**24 - 3, 12345678], dtype=np.int64)
    for q in (2, 3, 13, 4099):
        for dtype in (np.float32, np.int64, object):
            got = reduce_residues(a.astype(dtype), q)
            assert got.dtype == np.dtype(dtype)
            assert np.array_equal(got.astype(np.int64), a % q)


def test_division_by_zero():
    field = GF(3, 2)
    with pytest.raises(ZeroDivisionError):
        field.one / field.zero
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


@pytest.mark.parametrize("q,l", [(2, 1), (3, 1), (2, 16), (5, 32), (13, 64), (3, 128), (65537, 4)])
def test_inverse_beyond_small_fields(q, l):
    # a^(q^l - 2) is the inverse of every nonzero a; zero has none
    field = GF(q, l)
    rng = random.Random(q * l)
    for _ in range(5):
        a = field.random_element(rng)
        if a.is_zero():
            a = field.one
        assert a * a.inverse() == field.one
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


def test_mismatched_fields_rejected():
    a = GF(3, 2).one
    b = GF(3, 4).one
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_pow_basics():
    field = GF(3, 2)
    x = field.monomial(1)
    assert x**0 == field.one
    assert field.zero**0 == field.one
    assert field.zeta**field.order == field.one
    with pytest.raises(ValueError):
        x ** (-1)


def test_pow_unbounded_exponent():
    field = GF(3, 8)
    e = field.order  # 6560
    big = e * (3**64)  # far beyond machine words; must reduce to identity
    assert field.zeta**big == field.one


# ---------------------------------------------------------------------------
# trace machinery
# ---------------------------------------------------------------------------

def test_trace_hand_values():
    f9 = GF(3, 2)
    assert f9.trace(f9.zero) == 0
    assert f9.trace(f9.monomial(1)) == 0  # x + x^3 = x - x = 0
    assert f9.trace(f9.one) == 2  # l * 1 = 2 mod 3
    assert GF(3, 8).trace(GF(3, 8).one) == 8 % 3


def test_trace_matches_frobenius_sum_oracle():
    # the full trace form, entry by entry, on fields that include q | l
    # (where tr(1) = l = 0): the oracle also asserts each sum lies in B
    fields = ((2, 1), (3, 1), (2, 3), (3, 2), (3, 3), (3, 4), (2, 8), (3, 8),
              (3, 9), (5, 3), (5, 4), (7, 2), (13, 2), (13, 4))
    for q, l in fields:
        field = GF(q, l)
        x = field.monomial(1) if l > 1 else field.zero  # x mod f; f = x at l = 1
        for i in range(l):
            for j in range(l):
                assert field._trace_form[i, j] == trace_by_frobenius_sum(x ** (i + j))
        rng = random.Random(l)
        for _ in range(20):
            a = field.random_element(rng)
            assert field.trace(a) == trace_by_frobenius_sum(a)


def test_trace_linear_and_surjective():
    for q, l in ((3, 2), (2, 3)):
        field = GF(q, l)
        elems = all_elements(field)
        values = {field.trace(a) for a in elems}
        assert values == set(range(q))  # surjective onto B
        rng = random.Random(q * l)
        for _ in range(30):
            a, b = field.random_element(rng), field.random_element(rng)
            c = rng.randrange(q)
            assert field.trace(c * a + b) == (c * field.trace(a) + field.trace(b)) % q


def test_trace_product_matches_product_trace():
    field = GF(3, 8)
    rng = random.Random(11)
    for _ in range(25):
        a, b = field.random_element(rng), field.random_element(rng)
        assert a.vec @ field._trace_form @ b.vec % field.q == field.trace(a * b)


def test_dual_basis_hand_example():
    field = GF(3, 2)
    x = field.monomial(1)
    mu = field.dual_basis([field.one, x])
    assert mu.tolist() == [[2, 0], [0, 1]]  # dual = {2, x}
    assert field.element(np.array([2, 0]) @ mu % 3) == field.one  # the traces of 1


def test_dual_basis_kronecker_and_reconstruction():
    for q, l in ((3, 2), (3, 4), (2, 3), (3, 8), (5, 3), (13, 2)):
        field = GF(q, l)
        basis = [field.zeta**i for i in range(l)]
        mu = field.dual_basis(basis)
        assert mu.shape == (l, l) and mu.dtype == np.int64
        duals = [field.element(row) for row in mu]
        for i, zi in enumerate(basis):
            for j, mj in enumerate(duals):
                assert field.trace(zi * mj) == (1 if i == j else 0)
        rng = random.Random(l)
        for _ in range(10):
            a = field.random_element(rng)
            traces = [field.trace(zi * a) for zi in basis]
            rebuilt = field.zero
            for t, mi in zip(traces, duals):
                rebuilt = rebuilt + t * mi
            assert rebuilt == a
            assert field.element(np.array(traces) @ mu % q) == a


def test_dual_basis_owns_its_data():
    # a copy, not a view into the l x 2l matrix the reduction returns, so a
    # kept dual basis keeps only its own l x l entries alive
    field = GF(3, 64)
    mu = field.dual_basis([field.zeta**i for i in range(field.l)])
    assert mu.base is None and mu.flags.owndata and mu.nbytes == 64 * 64 * 8


def test_dual_basis_rejects_rank_deficient():
    field = GF(3, 2)
    with pytest.raises(ValueError):
        field.dual_basis([field.one, field.scalar(2)])
    with pytest.raises(ValueError):
        field.dual_basis([field.one])
    field = GF(5, 3)
    x = field.monomial(1)
    with pytest.raises(ValueError):
        field.dual_basis([field.one, x, 2 * field.one + 3 * x])


# ---------------------------------------------------------------------------
# rank over the base field
# ---------------------------------------------------------------------------

def test_rank_trivial_cases():
    field = GF(3, 2)
    assert rank_over_base([]).rank == 0
    assert rank_over_base([field.zero]).rank == 0
    assert rank_over_base([field.one, field.monomial(1)]).rank == 2


def test_rank_powers_of_zeta():
    for q, l in ((3, 2), (3, 4), (3, 8)):
        field = GF(q, l)
        assert rank_over_base([field.zeta**i for i in range(l)]).rank == l


def test_rank_spread_powers():
    # {1, zeta^u, ..., zeta^((l-1)u)} has full rank whenever u | q - 1
    field = GF(3, 8)
    for u in (1, 2):
        elems = [field.zeta ** (u * i) for i in range(field.l)]
        assert rank_over_base(elems).rank == field.l


def test_rank_against_brute_force_oracle():
    rng = random.Random(17)
    for q, l in ((3, 2), (3, 4), (2, 3)):
        field = GF(q, l)
        for trial in range(8):
            elems = [field.random_element(rng) for _ in range(rng.randrange(1, 6))]
            profile = rank_over_base(elems)
            assert field.q**profile.rank == brute_force_span_size(elems)
    for (q, l), count in SMALL_FIELDS.items():
        field = GF(q, l)
        for trial in range(6):
            elems = dependent_elements(field, rng, count)
            assert field.q ** rank_over_base(elems).rank == brute_force_span_size(elems)


def test_rank_profile_pivots_and_coords():
    field = GF(3, 4)
    rng = random.Random(23)
    cases = [[field.random_element(rng) for _ in range(6)] for _ in range(10)]
    for (q, l) in SMALL_FIELDS:
        cases += [dependent_elements(GF(q, l), rng, 2 * l + 1) for _ in range(5)]
    for elems in cases:
        field = elems[0].field
        profile = rank_over_base(elems)
        chosen = [elems[p] for p in profile.pivots]
        # pivots are greedy-first: each pivot is independent of the earlier ones
        for j in range(len(chosen)):
            assert rank_over_base(chosen[: j + 1]).rank == j + 1
        # and every element between pivots depends on the pivots before it
        for i in range(len(elems)):
            assert rank_over_base(elems[: i + 1]).rank == sum(p <= i for p in profile.pivots)
        # every element reconstructs from its coordinates in the pivot subset
        for i, e in enumerate(elems):
            acc = field.zero
            for c, b in zip(profile.coords[i], chosen):
                acc = acc + int(c) * b
            assert acc == e


def test_field_describe_roundtrip():
    field = GF(3, 2)
    d = field.describe()
    assert d == {"q": 3, "l": 2, "modulus": [1, 0, 1], "zeta": [1, 1]}


def test_elements_hashable_and_immutable():
    field = GF(3, 2)
    a = field.element([1, 2])
    assert a == field.element([1, 2])
    assert len({a, field.element([1, 2]), field.one}) == 2
    with pytest.raises(ValueError):
        a.vec[0] = 0  # read-only storage


def test_element_validation():
    field = GF(3, 2)
    with pytest.raises(ValueError):
        field.element([1])
    assert field.element([4, -1]).coeffs == (1, 2)  # residues reduce mod q


def test_elements_of_gf_l1():
    field = GF(3, 1)
    two = field.scalar(2)
    assert (two * two).coeffs == (1,)
    assert field.trace(two) == 2
    assert two != field.one and two**2 == field.one  # order 2
