import random
from math import prod

import pytest

from rackrepair.radix import RadixSystem, index_set, multi_base_radices


def test_system_weights_and_capacity():
    sys = RadixSystem((2, 3))
    assert sys.weights == (1, 2)
    assert sys.capacity == 6
    sys = RadixSystem((2, 3, 2, 3))
    assert sys.weights == (1, 2, 6, 12)
    assert sys.capacity == 36


def test_system_rejects_bad_radices():
    with pytest.raises(ValueError):
        RadixSystem(())
    with pytest.raises(ValueError):
        RadixSystem((2, 1))


def test_encode_examples():
    assert RadixSystem((2, 3)).encode(0) == (0, 0)
    assert RadixSystem((2, 3)).encode(5) == (1, 2)  # 5 = 1 + 2*2
    assert RadixSystem((2, 2, 2)).encode(5) == (1, 0, 1)  # binary


def test_decode_examples():
    assert RadixSystem((2, 3)).decode((0, 0)) == 0
    assert RadixSystem((2, 3)).decode((1, 2)) == 5


def test_encode_range_errors():
    sys = RadixSystem((2, 3))
    with pytest.raises(ValueError):
        sys.encode(-1)
    with pytest.raises(ValueError):
        sys.encode(6)


def test_decode_bound_errors():
    sys = RadixSystem((2, 3))
    with pytest.raises(ValueError):
        sys.decode((2, 0))
    with pytest.raises(ValueError):
        sys.decode((0, 0, 0))


def test_bijectivity_exhaustive():
    for radices in ((2, 3, 2, 3), (2, 2, 2, 2), (5, 7, 11), (3,) * 8):
        sys = RadixSystem(radices)
        assert sys.capacity <= 10**4
        seen = set()
        for a in range(sys.capacity):
            d = sys.encode(a)
            assert sys.decode(d) == a
            seen.add(d)
        assert len(seen) == sys.capacity  # uniqueness: the map is a bijection


def test_weight_dwy_examples():
    # d_(w,y) is the weight at flat position w*m + y
    sys = RadixSystem(multi_base_radices((2, 3), 4))
    assert sys.weights[0] == 1  # (w, y) = (0, 1): empty product
    assert sys.weights[1] == 2  # (0, 2)
    assert sys.weights[3] == 12  # (1, 2): 6 * 2


def test_weight_dwy_is_system_weight():
    # d_(w,y) = rbar^w * p_1 * ... * p_(y-1)
    for primes in ((2, 3), (2, 2), (3, 5, 2)):
        m = len(primes)
        nprime = 3
        sys = RadixSystem(multi_base_radices(primes, nprime * m))
        for w in range(nprime):
            for y in range(1, m + 1):
                flat = w * m + y
                d = prod(primes) ** w * prod(primes[: y - 1])
                assert sys.weights[flat - 1] == d
                # and equals the value of the unit digit vector at that position
                unit = tuple(1 if i == flat - 1 else 0 for i in range(nprime * m))
                assert sys.decode(unit) == d


def test_multi_base_layout():
    sys = RadixSystem(multi_base_radices((2, 3), 5))  # nprime=2, h=1
    assert sys.radices == (2, 3, 2, 3, 2)


def test_index_set_c1_examples():
    # basic construction: rack i keeps the t whose i-th rbar-ary digit is zero
    binary = RadixSystem(multi_base_radices((2,), 3))
    assert index_set(binary, 2, 1) == (0, 1, 4, 5)
    assert index_set(RadixSystem(multi_base_radices((2,), 1)), 1, 1) == (0,)
    for i in (1, 2, 3):
        assert len(index_set(binary, i, 1)) == 2**2
    # composite rbar, which the basic construction admits
    assert index_set(RadixSystem(multi_base_radices((4,), 2)), 1, 1) == (0, 4, 8, 12)
    assert index_set(RadixSystem(multi_base_radices((4,), 2)), 2, 1) == (0, 1, 2, 3)
    assert index_set(RadixSystem(multi_base_radices((6,), 2)), 1, 1) == (0, 6, 12, 18, 24, 30)
    assert index_set(RadixSystem(multi_base_radices((6,), 3)), 2, 1) == tuple(
        t for t in range(216) if (t // 6) % 6 == 0
    )
    with pytest.raises(ValueError):
        index_set(binary, 0, 1)
    with pytest.raises(ValueError):
        index_set(binary, 4, 1)


def test_index_set_c1_cardinality():
    for nbar, rbar in ((3, 2), (4, 2), (3, 3), (3, 4), (3, 6)):
        sys = RadixSystem(multi_base_radices((rbar,), nbar))
        for i in range(1, nbar + 1):
            assert len(index_set(sys, i, 1)) == rbar ** (nbar - 1)


def test_index_set_c2_examples():
    # l = 16, digits t1..t4 with radices (2,2,2,2)
    sys = RadixSystem(multi_base_radices((2, 2), 4))
    assert index_set(sys, 1, 2) == (0, 4, 8, 12)  # t1 = t2 = 0
    # wrapped: rack (w, y) = (1, 2) -> positions 4 and 1
    expect = tuple(
        t for t in range(16)
        if (t >> 3) % 2 == 0 and t % 2 == 0  # t4 = 0 and t1 = 0
    )
    assert index_set(sys, 4, 2) == expect == (0, 2, 4, 6)


def test_index_set_c2_cardinality():
    for primes, nprime in (((2, 2), 2), ((2, 2), 3), ((2, 3), 2)):
        m = len(primes)
        rbar = prod(primes)
        l = rbar**nprime
        sys = RadixSystem(multi_base_radices(primes, nprime * m))
        for e in range(1, nprime * m + 1):
            assert len(index_set(sys, e, m)) * rbar == l


def test_index_set_c2_remainder():
    # nbar = 5, primes (2,2): positions 1..5, all radix 2, l = 32
    sys = RadixSystem(multi_base_radices((2, 2), 5))
    ts = index_set(sys, 5, 2)  # tail rack: positions 5, 1
    expect = tuple(
        t for t in range(32)
        if sys.encode(t)[4] == 0 and sys.encode(t)[0] == 0
    )
    assert ts == expect
    assert len(ts) * 4 == 32


def test_index_set_c2_rejects_uneven_remainder_window():
    # primes (2,3), nbar = 5: the wrapped window of the tail rack covers
    # radices (2, 2), product 4 != rbar = 6 -> no size-l/rbar index set
    with pytest.raises(ValueError):
        index_set(RadixSystem(multi_base_radices((2, 3), 5)), 5, 2)


def test_index_set_c2_validation():
    sys = RadixSystem(multi_base_radices((2, 2), 4))
    for start, width in ((0, 2), (5, 2), (1, 0), (1, 5)):
        with pytest.raises(ValueError):
            index_set(sys, start, width)


def test_coset_decomposition_block_racks():
    # {t + s*d_(w,y)} tiles [0, l-1] exactly for the unwrapped racks
    for primes, nprime in (((2, 2), 2), ((2, 2), 3), ((2, 3), 2)):
        m = len(primes)
        rbar = prod(primes)
        l = rbar**nprime
        sys = RadixSystem(multi_base_radices(primes, nprime * m))
        for e in range(1, (nprime - 1) * m + 1):
            d = sys.weights[e - 1]
            ts = index_set(sys, e, m)
            sums = sorted(t + s * d for t in ts for s in range(rbar))
            assert sums == list(range(l))


def test_coset_decomposition_wrapped_racks():
    # for w = nprime - 1 the sums tile P * [0, l-1] with P = p_1 ... p_(y-1)
    for primes, nprime in (((2, 2), 2), ((2, 3), 2)):
        m = len(primes)
        rbar = prod(primes)
        l = rbar**nprime
        sys = RadixSystem(multi_base_radices(primes, nprime * m))
        w = nprime - 1
        for y in range(1, m + 1):
            d = sys.weights[w * m + y - 1]
            ts = index_set(sys, w * m + y, m)
            scale = prod(primes[: y - 1])
            sums = sorted(t + s * d for t in ts for s in range(rbar))
            assert sums == [scale * v for v in range(l)]


def test_bijectivity_random_large():
    rng = random.Random(9)
    radices = tuple(rng.randrange(2, 6) for _ in range(6))
    sys = RadixSystem(radices)
    for _ in range(200):
        a = rng.randrange(sys.capacity)
        assert sys.decode(sys.encode(a)) == a
