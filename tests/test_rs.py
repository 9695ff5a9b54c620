import itertools
import random

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
    poly_eval,
)


def small_code(q=3, l=4, n=6, k=2, nbar=3, u=2, spread=1):
    field = GF(q, l)
    points = tuple(field.zeta ** (spread * i) for i in range(1, n + 1))
    return CodeSpec(field=field, n=n, k=k, eval_points=points, nbar=nbar, u=u)


def random_message(code, rng):
    return [code.field.random_element(rng) for _ in range(code.k)]


def test_codespec_validation():
    field = GF(3, 2)
    pts = tuple(field.zeta**i for i in range(1, 5))
    with pytest.raises(ValueError):
        CodeSpec(field, 4, 2, pts, nbar=3, u=2)  # n != nbar * u
    with pytest.raises(ValueError):
        CodeSpec(field, 4, 1, pts, nbar=2, u=2)  # k < u
    with pytest.raises(ValueError):
        CodeSpec(field, 4, 4, pts, nbar=2, u=2)  # k = n
    with pytest.raises(ValueError):
        CodeSpec(field, 4, 2, (pts[0],) * 4, nbar=2, u=2)  # repeated points


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
    code = CodeSpec(field=field, n=2, k=1, eval_points=(field.scalar(1), field.scalar(2)),
                    nbar=2, u=1)
    lam = dual_weights(code)
    assert [w.coeffs for w in lam] == [(2,), (1,)]


def test_dual_weights_nonzero_and_product_formula():
    code = small_code()
    lam = dual_weights(code)
    for i, w in enumerate(lam):
        assert not w.is_zero()
        acc = code.field.one
        for j, b in enumerate(code.eval_points):
            if j != i:
                acc = acc * (code.eval_points[i] - b)
        assert w * acc == code.field.one
        assert code.weight_inverses[i] == acc


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
    pts = tuple(field.zeta**i for i in range(1, 5))
    code1 = CodeSpec(field, 4, 1, pts, nbar=4, u=1)
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


def test_poly_eval_horner():
    field = GF(3, 2)
    x = field.monomial(1)
    # f(t) = 1 + 2t + t^2 at t = x: 1 + 2x + x^2 = 1 + 2x + 2 = 2x
    val = poly_eval([field.one, field.scalar(2), field.one], x)
    assert val == 2 * x


ENCODE_CODES = {
    "C1": lambda: build(c1_params(3, 2, 3, 2)).code,
    "C2": lambda: build(c2_params(3, 2, 6, (2, 2))).code,
    "C2-remainder": lambda: build(c2_params(3, 2, 5, (2, 2))).code,
    "Cor7": lambda: build(cor7_params(3, 2, 6, 5)).code,
    "homogeneous": lambda: build(homogeneous_params(3, 3, 2)).code,
    "C1-q5": lambda: build(c1_params(5, 4, 3, 2, v=2)).code,
    "C2-q13": lambda: build(c2_params(13, 3, 6, (2, 2))).code,
    "C1-l128": lambda: build(c1_params(3, 2, 7, 2)).code,
    "small_code": small_code,  # points zeta^i: one node per group
}


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


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_encode_wide_dtypes(monkeypatch, dtype):
    monkeypatch.setattr(rs, "residue_dtype", lambda *_: dtype)
    for code in (build(c2_params(3, 2, 6, (2, 2))).code, small_code()):
        assert code.point_matrices.dtype == code.point_powers.dtype == dtype
        rng = random.Random(59)
        for length in (1, code.k):
            message = [code.field.random_element(rng) for _ in range(length)]
            assert encode(message, code) == reference_encode(message, code)


def test_build_codes_store_one_matrix_per_rack():
    # rack e's points are gamma_e s_j and its weights lambda_e w_j, s_j and
    # w_j in B, so one matrix per rack and B-scalars stand for every node
    for params in (c2_params(3, 2, 6, (2, 2)), c2_params(13, 3, 6, (2, 2))):
        code = build(params).code
        field, q, l = code.field, code.field.q, code.field.l
        lam = dual_weights(code)
        assert code.point_matrices.shape == code.weight_matrices.shape == (code.nbar, l, l)
        assert code.point_powers.shape == (code.k, code.nbar, code.u)
        assert code.weight_scalars.shape == (code.nbar, code.u)
        for node in range(1, code.n + 1):
            e, j = code.rack_of(node)
            s = int(code.point_powers[1, e - 1, j - 1])
            w = int(code.weight_scalars[e - 1, j - 1])
            assert code.eval_points[node - 1] == s * code.eval_points[(e - 1) * code.u]
            assert np.array_equal(field.mul_matrix(lam[node - 1]),
                                  w * code.weight_matrices[e - 1].astype(np.int64) % q)
    code = small_code()  # zeta^i and zeta^(i+1) differ by zeta, not by a scalar of B
    assert code.point_matrices.shape == code.weight_matrices.shape == (code.n, 4, 4)
    assert (code.point_powers == 1).all() and (code.weight_scalars == 1).all()


@pytest.mark.parametrize("name", ["C2", "C2-q13", "small_code"])
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


@pytest.mark.parametrize("name", ["C2", "C2-q13", "small_code"])
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


@pytest.mark.parametrize("name", ["C2", "C2-q13", "small_code"])
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
