import itertools
import random

import numpy as np
import pytest
from field_oracle import irreducibles, poly_gcd, poly_mul

from rackrepair import gf
from rackrepair.gf import (
    GF,
    FieldElement,
    PrimeField,
    expand_in_dual_basis,
    factor_field_order,
    find_irreducible,
    find_primitive_element,
    rank_over_base,
    reduce_residues,
)


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
    with pytest.raises(ValueError):
        PrimeField(4)
    assert PrimeField(3).q == 3
    assert PrimeField(2).primitive_root == 1
    assert PrimeField(3).primitive_root == 2
    assert PrimeField(7).primitive_root == 3
    # q = 2^31 + 11 is prime, but 2 (q-1)^2 >= 2^63 would overflow int64
    with pytest.raises(ValueError, match="q = 2147483659"):
        GF(2147483659, 2)


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


# the fields the block sieve is checked on: l = 16 to 128, at q = 2 to 13
ORACLE_FIELDS = [(2, 64), (2, 128), (3, 32), (3, 64), (3, 81), (3, 128), (5, 32), (5, 64),
                 (7, 27), (7, 64), (13, 16), (13, 64)]


@pytest.mark.parametrize("q,l", ORACLE_FIELDS, ids=[f"{q}^{l}" for q, l in ORACLE_FIELDS])
def test_find_irreducible_matches_per_degree_oracle(q, l):
    # the blocked sieve picks the same modulus as one gcd per degree
    assert find_irreducible(q, l) == next(irreducibles(q, l))


@pytest.mark.parametrize("d", [5, 8, 9, 16, 20])
def test_block_sieve_rejects_products(d):
    # f = g h with g, h irreducible of degrees d and l - d has no root, and
    # only the block holding d can see it: inside the first block (5), at a
    # block end (8, 16), just past one (9), and at the last block's end,
    # l/2 = 20, where g and h are the first two irreducibles of degree 20
    q, l = 3, 40
    found = irreducibles(q, d)
    g = next(found)
    h = next(found) if d == l - d else next(irreducibles(q, l - d))
    f = poly_mul(np.array(g), np.array(h), q)
    assert f.size == l + 1 and f[-1] == 1
    assert not gf._is_irreducible(f, q, l)
    assert gf._is_irreducible(np.array(next(irreducibles(q, l))), q, l)


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


def test_primitive_element_small_cases():
    assert GF(3, 1).zeta == GF(3, 1).scalar(2)  # 2 generates GF(3)*
    f23 = GF(2, 3)
    assert f23.element_order(f23.monomial(1)) == 7  # order 7 is prime


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


def test_element_order():
    field = GF(3, 2)
    assert field.element_order(field.one) == 1
    assert field.element_order(field.scalar(2)) == 2  # -1 has order 2 for odd q
    assert field.element_order(field.zeta) == field.order
    with pytest.raises(ValueError):
        field.element_order(field.zero)
    for a in all_elements(field):
        if a.is_zero():
            continue
        e = field.element_order(a)
        assert a**e == field.one
        for p in set(field.order_factorization):
            if e % p == 0:
                assert a ** (e // p) != field.one


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
    pair = field.dual_basis([field.one, x])
    assert [m.coeffs for m in pair.mu_basis] == [(2, 0), (0, 1)]  # dual = {2, x}


def test_dual_basis_kronecker_and_reconstruction():
    for q, l in ((3, 2), (3, 4), (2, 3), (3, 8), (5, 3), (13, 2)):
        field = GF(q, l)
        basis = [field.zeta**i for i in range(l)]
        pair = field.dual_basis(basis)
        for i, zi in enumerate(pair.zeta_basis):
            for j, mj in enumerate(pair.mu_basis):
                assert field.trace(zi * mj) == (1 if i == j else 0)
        rng = random.Random(l)
        for _ in range(10):
            a = field.random_element(rng)
            rebuilt = field.zero
            for zi, mi in zip(pair.zeta_basis, pair.mu_basis):
                rebuilt = rebuilt + field.trace(zi * a) * mi
            assert rebuilt == a


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


def test_expand_in_dual_basis():
    field = GF(3, 2)
    x = field.monomial(1)
    pair = field.dual_basis([field.one, x])
    assert expand_in_dual_basis([0, 0], pair).is_zero()
    assert expand_in_dual_basis([2, 0], pair) == field.one  # traces of a = 1
    rng = random.Random(5)
    for _ in range(20):
        a = field.random_element(rng)
        traces = [field.trace(z * a) for z in pair.zeta_basis]
        assert expand_in_dual_basis(traces, pair) == a


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
    assert field.element_order(two) == 2
