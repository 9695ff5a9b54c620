"""`gf._rref`, the elimination kernel with delayed reduction, against the
reference elimination `field_oracle.rref`, which shares no code with it:
seeded random matrices of known rank over six primes, every matrix an
all-node set-up reduces on seven codes, and the dtype rule at its bound."""

import random

import numpy as np
import pytest
from field_oracle import rref

from rackrepair import gf
from rackrepair.constructions import (
    build,
    c1_params,
    c2_params,
    cor7_params,
    homogeneous_params,
    verify_rank_condition,
)

PRIMES = (2, 3, 13, 257, 4099, 65537)
SHAPES = ((8, 8), (128, 128), (256, 256), (40, 8), (256, 64), (8, 40), (64, 256))


def _matrix_of_rank(rng, q, rows, cols, rank):
    """A rows x cols matrix over GF(q) of rank exactly `rank`: L U with L of
    full column rank and U of full row rank, each holding an identity block
    in random rows or columns."""
    L = rng.integers(0, q, (rows, rank))
    L[rng.permutation(rows)[:rank]] = np.eye(rank, dtype=np.int64)
    U = rng.integers(0, q, (rank, cols))
    U[:, rng.permutation(cols)[:rank]] = np.eye(rank, dtype=np.int64)
    return L @ U % q  # sums of at most 256 (q-1)^2 < 2^63


def _assert_matches_oracle(mat, q, kernel=gf._rref):
    R, pivots = kernel(mat, q)
    R0, pivots0 = rref(np.array(mat, dtype=np.int64), q)
    assert pivots == pivots0
    assert R.dtype == np.int64 and R.shape == mat.shape
    assert np.array_equal(R, R0)
    return pivots


@pytest.mark.parametrize("q,shape", [(q, s) for q in PRIMES for s in SHAPES
                                     if q < 65537 or s[0] <= 128],
                         ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_rref_matches_oracle_on_random_ranks(q, shape):
    # ranks 0, 1, about a third and full; the input is shifted by multiples
    # of q, negative ones included, as the kernel reduces it first
    rows, cols = shape
    rng = np.random.default_rng([q, rows, cols])
    for rank in (0, 1, min(shape) // 3, min(shape)):
        mat = _matrix_of_rank(rng, q, rows, cols, rank) + q * rng.integers(-2, 3, shape)
        assert len(_assert_matches_oracle(mat, q)) == rank


ACCEPTANCE = {
    "c1": c1_params(3, 2, 3, 2),
    "c2": c2_params(3, 2, 6, (2, 2)),
    "c2rem": c2_params(3, 2, 5, (2, 2)),
    "cor7": cor7_params(3, 2, 6, 5),
    "hom": homogeneous_params(3, 3, 2),
    "mixed-q13": c2_params(13, 3, 6, (2, 2)),
    "sweep-l128": c1_params(3, 2, 7, 2),
}


@pytest.mark.parametrize("params", ACCEPTANCE.values(), ids=ACCEPTANCE)
def test_rref_matches_oracle_on_plan_matrices(params, monkeypatch):
    # every host [ZT | I] and every helper matrix of every rack that an
    # all-node set-up reduces, on the five acceptance instances and the
    # benchmark's mixed-q13 and sweep-l128 codes
    inst = build(params)
    shapes = []
    kernel = gf._rref

    def checked(mat, q):
        shapes.append(mat.shape)
        _assert_matches_oracle(mat, q, kernel)
        return kernel(mat, q)

    monkeypatch.setattr(gf, "_rref", checked)
    for node in range(1, params.n + 1):
        verify_rank_condition(inst, node)
    l, nbar = params.l, params.nbar
    assert shapes.count((l, 2 * l)) == nbar  # one host [ZT | I] per rack
    assert len(shapes) - nbar == nbar * (nbar - 1)  # and its nbar - 1 helpers


def test_rref_int32_reduces_the_pivot_row_before_scaling(monkeypatch):
    # 64 rows at q = 4099 take int32, and a full-rank 64 x 128 matrix gives
    # its later pivot rows unreduced sums of up to 63 updates: scaled by an
    # inverse before they are reduced, they would overflow int32
    q = 4099
    chosen = []
    rule = gf._rref_dtype

    def recorded(rows, q):
        chosen.append(rule(rows, q))
        return chosen[-1]

    monkeypatch.setattr(gf, "_rref_dtype", recorded)
    mat = np.random.default_rng(4099).integers(0, q, (64, 128))
    assert _assert_matches_oracle(mat, q) == tuple(range(64))
    assert chosen == [np.int32]


def test_rref_dtype_rule():
    # int32 exactly when rows (q-1)^2 + q < 2^31, int64 below 2^63, and an
    # AssertionError from 2^63 on
    assert gf._rref_dtype(2**31 - 3, 2) == np.int32  # bound 2^31 - 1
    assert gf._rref_dtype(2**31 - 2, 2) == np.int64  # bound 2^31
    assert gf._rref_dtype(127, 4099) == np.int32
    assert gf._rref_dtype(128, 4099) == np.int64
    assert gf._rref_dtype(1, 65537) == np.int64  # (q-1)^2 = 2^32 alone
    assert gf._rref_dtype(gf.MAX_L, gf.MAX_Q) == np.int64  # 2^44 + q
    assert gf._rref_dtype(2**31 - 1, 65537) == np.int64  # 2^63 - 2^32 + q
    with pytest.raises(AssertionError, match="overflow int64"):
        gf._rref_dtype(2**31, 65537)  # 2^63 + q


@pytest.mark.parametrize("q,l", [(3, 64), (13, 64), (65537, 4)])
def test_dual_basis_matches_int64_reference(q, l):
    # the float64 products of `dual_basis` against int64 ones and the
    # reference elimination
    field = gf.GF(q, l)
    basis = [field.zeta ** random.Random(q * l).randrange(field.order)]
    while len(basis) < l:  # zeta^s (1, zeta, ..., zeta^(l-1)) is a basis
        basis.append(basis[-1] * field.zeta)
    Z = np.stack([b.vec for b in basis])
    ZT = Z @ field._trace_form % q
    R0, pivots0 = rref(np.concatenate([ZT, np.eye(l, dtype=np.int64)], axis=1), q)
    mu = field.dual_basis(basis)
    assert pivots0 == tuple(range(l))
    assert mu.dtype == np.int64 and np.array_equal(mu, R0[:, l:].T)
