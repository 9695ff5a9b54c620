import gc
import itertools
import random
import time
import weakref

import numpy as np
import pytest
from dual_oracle import dual_codeword
from encode_oracle import reference_encode

from rackrepair import rs
from rackrepair.constructions import build, c1_params, c2_params, cor7_params, homogeneous_params
from rackrepair.gf import GF, FieldElement
from rackrepair.rs import (
    CodeSpec,
    dual_weights,
    encode,
    erasure_decode,
)


def small_code():
    # three racks of two nodes over GF(3^4): rack e is +-zeta^e (alpha = -1)
    field = GF(3, 4)
    return CodeSpec(field=field, k=2, leaders=tuple(field.zeta**e for e in range(1, 4)),
                    alpha=2, u=2)


def u1_code():
    # u = 1 on the points zeta^i: every node its own rack, no coset structure
    field = GF(3, 4)
    return CodeSpec(field=field, k=2, leaders=tuple(field.zeta**i for i in range(1, 7)),
                    alpha=1, u=1)


ENCODE_CODES = {
    "C1": lambda: build(c1_params(3, 2, 3, 2)).code,
    "C2": lambda: build(c2_params(3, 2, 6, (2, 2))).code,
    "C2-remainder": lambda: build(c2_params(3, 2, 5, (2, 2))).code,
    "Cor7": lambda: build(cor7_params(3, 2, 6, 5)).code,
    "homogeneous": lambda: build(homogeneous_params(3, 3, 2)).code,
    "C1-q5": lambda: build(c1_params(5, 4, 3, 2, v=2)).code,
    "C2-q13": lambda: build(c2_params(13, 3, 6, (2, 2))).code,
    "C1-l128": lambda: build(c1_params(3, 2, 7, 2)).code,
    "small_code": small_code,
    "u1": u1_code,  # points zeta^i: encode and decode need no coset structure
}


def random_message(code, rng):
    return [code.field.random_element(rng) for _ in range(code.k)]


def test_codespec_validation():
    # GF(9): zeta has order 8 and -1 = zeta^4, so the racks +-zeta, +-zeta^2
    # are four distinct points
    field = GF(3, 2)
    lead = (field.zeta, field.zeta**2)
    code = CodeSpec(field, 2, lead, alpha=2, u=2)
    assert (code.n, code.nbar, code.r) == (4, 2, 2)
    assert code.eval_points == (field.zeta**5, field.zeta, field.zeta**6, field.zeta**2)
    for alpha, u in ((1, 2), (2, 1), (0, 1), (3, 1), (4, 2)):  # order != u, or not in B*
        with pytest.raises(ValueError, match="order"):
            CodeSpec(field, 2, lead, alpha=alpha, u=u)
    with pytest.raises(ValueError, match="order"):
        CodeSpec(GF(5, 2), 2, (GF(5, 2).zeta,) * 2, alpha=2, u=2)  # 2 has order 4 mod 5
    with pytest.raises(ValueError, match="does not belong"):
        CodeSpec(field, 2, (field.zeta, GF(5, 2).zeta), alpha=2, u=2)  # leader of another field
    with pytest.raises(ValueError, match="distinct"):
        CodeSpec(field, 2, (field.zeta, field.zeta**5), alpha=2, u=2)  # -zeta = zeta^5
    for k in (1, 4):  # k < u, k = n
        with pytest.raises(ValueError, match="u <= k < n"):
            CodeSpec(field, k, lead, alpha=2, u=2)


def test_node_indexing():
    code = small_code()
    assert code.node_index(1, 1) == 1
    assert code.node_index(2, 1) == 3
    assert code.node_index(3, 2) == 6
    assert code.rack_of(3) == (2, 1)
    assert code.rack_of(6) == (3, 2)
    with pytest.raises(ValueError):
        code.node_index(4, 1)
    with pytest.raises(ValueError):
        code.rack_of(7)


def test_encode_constants_and_identity():
    code = small_code()
    c = code.field.scalar(2)
    assert encode([c], code) == (c,) * code.n
    word = encode([code.field.zero, code.field.one], code)  # f(x) = x
    assert word == code.eval_points


def test_encode_degree_overflow():
    code = small_code()
    with pytest.raises(ValueError):
        encode([code.field.one] * (code.k + 1), code)


def test_dual_weights_hand_example():
    # A = {1, 2} over GF(3): lambda_1 = (1-2)^-1 = 2, lambda_2 = (2-1)^-1 = 1
    field = GF(3, 1)
    code = CodeSpec(field=field, k=1, leaders=(field.scalar(1), field.scalar(2)), alpha=1, u=1)
    lam = dual_weights(code)
    assert [w.coeffs for w in lam] == [(2,), (1,)]


def test_dual_weights_nonzero_and_product_formula():
    # on every code, the per-rack form of `weight_inverses` equals the
    # plain product over all other points
    for make in ENCODE_CODES.values():
        code = make()
        lam = dual_weights(code)
        for i, w in enumerate(lam):
            assert not w.is_zero()
            acc = code.field.one
            for j, b in enumerate(code.eval_points):
                if j != i:
                    acc = acc * (code.eval_points[i] - b)
            assert w * acc == code.field.one
            assert code.weight_inverses[i] == acc


POINT_POWER_CODES = {"C1-q257": lambda: c1_params(257, 256, 3, 2),
                     "C2": lambda: c2_params(3, 2, 6, (2, 2)),
                     "C2-q13": lambda: c2_params(13, 3, 6, (2, 2))}


@pytest.mark.parametrize("name", POINT_POWER_CODES)
def test_point_powers_match_pow_table(name):
    # rows built as row m - 1 times row 1 hold alpha^(jm), in the code's dtype
    code = build(POINT_POWER_CODES[name]()).code
    table = np.array([[pow(code.alpha, j * m, code.field.q) for j in range(1, code.u + 1)]
                      for m in range(code.k)], dtype=code._dtype)
    assert code.point_powers.dtype == table.dtype
    assert np.array_equal(code.point_powers, table)


def test_weight_inverses_take_one_factor_per_rack():
    # n = 768 points in 3 racks of u = 256: n^2 products took seconds
    code = build(c1_params(257, 256, 3, 2)).code
    start = time.perf_counter()
    inverses = code.weight_inverses
    assert time.perf_counter() - start < 2
    a = code.eval_points
    for i in (0, 255, 256, 767):
        acc = code.field.one
        for j in range(code.n):
            if j != i:
                acc = acc * (a[i] - a[j])
        assert inverses[i] == acc


def test_duality_randomized_oracle():
    code = small_code()
    rng = random.Random(31)
    for _ in range(100):
        f = random_message(code, rng)
        g = [code.field.random_element(rng) for _ in range(code.r)]
        word = encode(f, code)
        dual = dual_codeword(g, code)
        ip = code.field.zero
        for a, b in zip(word, dual):
            ip = ip + a * b
        assert ip.is_zero()


def test_dual_codeword_trivials():
    code = small_code()
    zero_word = dual_codeword([], code)
    assert all(s.is_zero() for s in zero_word)
    lam_word = dual_codeword([code.field.one], code)
    assert lam_word == dual_weights(code)


def test_dual_codeword_degree_overflow():
    code = small_code()
    with pytest.raises(ValueError):
        dual_codeword([code.field.one] * (code.r + 1), code)


def test_erasure_decode_trivials():
    code = small_code()
    zeros = [(i + 1, code.field.zero) for i in range(code.k)]
    assert all(c.is_zero() for c in erasure_decode(zeros, code))

    field = GF(3, 2)
    code1 = CodeSpec(field, 1, tuple(field.zeta**i for i in range(1, 5)), alpha=1, u=1)
    c = field.scalar(2)
    assert erasure_decode([(3, c)], code1) == (c,)


def test_erasure_decode_errors():
    code = small_code()
    sym = code.field.one
    with pytest.raises(ValueError):
        erasure_decode([(1, sym)], code)  # too few
    with pytest.raises(ValueError):
        erasure_decode([(1, sym), (1, sym)], code)  # duplicates
    for bad in (0, -1, code.n + 1):  # position 0 must not read node n's point
        with pytest.raises(ValueError, match="outside"):
            erasure_decode([(bad, sym), (1, sym)], code)
    # a plain int, or an element of another field, is not a symbol of the code
    c1 = build(c1_params(3, 2, 3, 2)).code
    word = list(encode([c1.field.one] * c1.k, c1))
    for bad in (0, GF(5, c1.field.l).one):
        partial = [(p, word[p - 1]) for p in range(1, c1.k + 1)]
        partial[1] = (2, bad)
        with pytest.raises(ValueError, match="does not belong"):
            erasure_decode(partial, c1)


def test_mds_roundtrip_random_subsets():
    code = small_code()
    rng = random.Random(41)
    for _ in range(100):
        f = random_message(code, rng)
        word = encode(f, code)
        subset = rng.sample(range(1, code.n + 1), code.k)
        decoded = erasure_decode([(p, word[p - 1]) for p in subset], code)
        assert list(decoded) == list(f)
        assert encode(decoded, code) == word


def test_mds_exhaustive_subsets():
    code = small_code()
    rng = random.Random(43)
    f = random_message(code, rng)
    word = encode(f, code)
    count = 0
    for subset in itertools.combinations(range(1, code.n + 1), code.k):
        decoded = erasure_decode([(p, word[p - 1]) for p in subset], code)
        assert encode(decoded, code) == word
        count += 1
    assert count == 15  # C(6, 2)


def test_mds_exhaustive_subsets_c2():
    # every 4 of the 12 symbols of the C2 code read the message back
    code = build(c2_params(3, 2, 6, (2, 2))).code
    rng = random.Random(47)
    message = random_message(code, rng)
    word = encode(message, code)
    count = 0
    for subset in itertools.combinations(range(1, code.n + 1), code.k):
        assert list(erasure_decode([(p, word[p - 1]) for p in subset], code)) == message
        count += 1
    assert count == 495  # C(12, 4)


def test_dual_weights_keeps_only_the_last_code():
    # the cache holds the last code it saw, with its matrix stacks, and lets
    # it go once another code is asked for
    rs.dual_weights.cache_clear()
    first = small_code()
    rs.dual_weights(first)
    ref = weakref.ref(first)
    del first
    gc.collect()
    assert ref() is not None
    second = u1_code()
    rs.dual_weights(second)
    gc.collect()
    assert ref() is None
    assert rs.dual_weights.cache_info().currsize == 1


@pytest.mark.parametrize("name", list(ENCODE_CODES))
def test_encode_matches_reference(name):
    # every message length from 0 (the zero word) to k, and the erasure
    # decoder reads the message back from k symbols
    code = ENCODE_CODES[name]()
    rng = random.Random(53)
    for length in range(code.k + 1):
        message = [code.field.random_element(rng) for _ in range(length)]
        word = encode(message, code)
        assert word == reference_encode(message, code)
        subset = sorted(rng.sample(range(1, code.n + 1), code.k))
        decoded = erasure_decode([(p, word[p - 1]) for p in subset], code)
        assert list(decoded) == message + [code.field.zero] * (code.k - length)
    assert encode([], code) == (code.field.zero,) * code.n


@pytest.mark.parametrize("dtype", [np.int64])
def test_encode_wide_dtypes(monkeypatch, dtype):
    monkeypatch.setattr(rs, "residue_dtype", lambda *_: dtype)
    for code in (build(c2_params(3, 2, 6, (2, 2))).code, small_code()):
        assert code.point_matrices.dtype == code.point_powers.dtype == dtype
        rng = random.Random(59)
        for length in (1, code.k):
            message = [code.field.random_element(rng) for _ in range(length)]
            assert encode(message, code) == reference_encode(message, code)


def test_build_codes_store_one_matrix_per_rack():
    # rack e's points are gamma_e a^j, a in B of order u, so
    # prod_j (x - gamma_e a^j) = x^u - gamma_e^u and its weights are
    # lambda_(e,j) = a^((1-j)(u-1)) lambda_(e,1): one matrix per rack and
    # B-scalars stand for every node, in every mode
    for params in (c2_params(3, 2, 6, (2, 2)), c2_params(13, 3, 6, (2, 2)), c1_params(3, 2, 3, 2),
                   c1_params(5, 4, 3, 2, v=2), homogeneous_params(3, 3, 2),
                   cor7_params(3, 2, 6, 5), c2_params(3, 2, 5, (2, 2))):
        inst = build(params)
        code = inst.code
        field, q, l = code.field, code.field.q, code.field.l
        lam = dual_weights(code)
        assert code.point_matrices.shape == code.weight_matrices.shape == (code.nbar, l, l)
        assert code.point_powers.shape == (code.k, code.u)
        assert code.weight_scalars.shape == (code.u,)
        for node in range(1, code.n + 1):
            e, j = code.rack_of(node)
            gamma = code.leaders[e - 1]
            assert gamma == field.zeta ** inst.radix.weights[e - 1]
            assert np.array_equal(field.mul_matrix(gamma), code.point_matrices[e - 1])
            s = pow(code.alpha, j, q)
            assert code.point_powers[:, j - 1].tolist() == [s**m % q for m in range(code.k)]
            w = int(code.weight_scalars[j - 1])
            assert w == pow(code.alpha, (1 - j) * (code.u - 1), q)
            assert code.eval_points[node - 1] == s * gamma
            assert np.array_equal(field.mul_matrix(lam[node - 1]),
                                  w * code.weight_matrices[e - 1].astype(np.int64) % q)


@pytest.mark.parametrize("name", ["C2", "C2-q13", "small_code", "u1"])
def test_dual_weights_take_one_inverse(name, monkeypatch):
    # Montgomery's trick: the n weights equal their own inverses, from one
    # field inverse for the whole code (the spot-check passes inside)
    code = ENCODE_CODES[name]()
    calls = []
    inverse = FieldElement.inverse
    monkeypatch.setattr(FieldElement, "inverse", lambda a: calls.append(1) or inverse(a))
    lam = dual_weights.__wrapped__(code)  # past the cache, so the count is this call's
    assert len(calls) == 1
    assert lam == tuple(inverse(p) for p in code.weight_inverses)


@pytest.mark.parametrize("name", ["C2", "small_code", "u1"])
def test_dual_weight_spot_check_catches_a_wrong_weight(name, monkeypatch):
    # one weight off by 1 moves sum_i lambda_i alpha_i^(n-2) by a nonzero
    # point's power, so the spot-check must fail
    code = ENCODE_CODES[name]()
    invert_all = rs._invert_all

    def off_by_one(vals):
        out = invert_all(vals)
        out[1] = out[1] + 1
        return out

    monkeypatch.setattr(rs, "_invert_all", off_by_one)
    with pytest.raises(AssertionError, match="dual weight spot-check failed"):
        dual_weights.__wrapped__(code)


@pytest.mark.parametrize("name", ["C2", "C2-q13", "small_code"])
def test_dual_weight_rack_check_catches_a_wrong_scalar(name):
    # lambda_(e,j) = w_j lambda_(e,1) is checked on every node, so one
    # wrong B-scalar in the row every rack shares makes dual_weights fail
    code = ENCODE_CODES[name]()
    w = code.weight_scalars.copy()
    w[-1] = (w[-1] + 1) % code.field.q
    code.__dict__["weight_scalars"] = w  # this code object only
    with pytest.raises(AssertionError, match="not w_j times"):
        dual_weights.__wrapped__(code)


@pytest.mark.parametrize("name", ["C2", "C2-q13", "small_code", "u1"])
def test_erasure_decode_takes_one_inverse(name, monkeypatch):
    # the k Lagrange denominators are inverted together, like the dual weights
    code = ENCODE_CODES[name]()
    rng = random.Random(67)
    message = random_message(code, rng)
    word = encode(message, code)
    subset = rng.sample(range(1, code.n + 1), code.k)
    calls = []
    inverse = FieldElement.inverse
    monkeypatch.setattr(FieldElement, "inverse", lambda a: calls.append(1) or inverse(a))
    assert list(erasure_decode([(p, word[p - 1]) for p in subset], code)) == message
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["C2", "C2-q13", "small_code", "u1"])
def test_invert_all_matches_single_inverses(name):
    vals = ENCODE_CODES[name]().weight_inverses
    for part in (vals[:1], vals):
        assert rs._invert_all(part) == [v.inverse() for v in part]


def test_encode_rejects_foreign_symbols():
    code = build(c2_params(3, 2, 6, (2, 2))).code
    rng = random.Random(61)
    message = [code.field.random_element(rng) for _ in range(code.k)]
    for bad in (GF(13, code.field.l).random_element(rng), 1):
        message[1] = bad
        with pytest.raises(ValueError, match="does not belong"):
            encode(message, code)
