from dataclasses import replace

import pytest
from family_oracle import FamilyEvaluator

from rackrepair.constructions import (
    build,
    c1_params,
    c2_params,
    cor7_params,
    digit_system,
    homogeneous_params,
    rack_wy,
    repair_family,
    verify_rank_condition,
)
from rackrepair.gf import rank_over_base


def test_c1_params_derivation():
    p = c1_params(3, 2, 3, 2)
    assert (p.l, p.n, p.k, p.kbar, p.v) == (8, 6, 2, 1, 0)
    assert p.mode == "C1" and p.rbar_eff == 2


def test_c2_params_derivation():
    p = c2_params(3, 2, 6, (2, 2))
    assert (p.rbar, p.m, p.h, p.nprime, p.l, p.n, p.k) == (4, 2, 0, 3, 64, 12, 4)
    p = c2_params(3, 2, 5, (2, 2))
    assert p.mode == "C2-remainder"
    assert (p.h, p.l, p.n, p.k) == (1, 32, 10, 2)


def test_cor7_params_derivation():
    p = cor7_params(3, 2, 6, 5)
    assert (p.rbar, p.rbar_eff, p.primes, p.l, p.k, p.kprime) == (5, 4, (2, 2), 64, 2, 4)
    # degree check: u * rbar' - u <= n - k' - 1
    assert p.u * p.rbar_eff - p.u == 6 <= p.n - p.kprime - 1 == 7


def test_params_validation_errors():
    with pytest.raises(ValueError):
        c1_params(4, 1, 3, 2)  # q composite
    with pytest.raises(ValueError):
        c1_params(3, 4, 3, 2)  # u does not divide q - 1
    with pytest.raises(ValueError):
        c1_params(3, 2, 3, 3)  # kbar = 0
    with pytest.raises(ValueError):
        c1_params(3, 2, 3, 2, v=2)  # v out of range
    with pytest.raises(ValueError):
        c2_params(3, 2, 6, (4, 2))  # composite prime entry
    with pytest.raises(ValueError):
        c2_params(3, 2, 6, (8,))  # m = 1 not multi-base
    with pytest.raises(ValueError):
        c2_params(3, 2, 3, (2, 2))  # nprime < 2
    with pytest.raises(ValueError):
        cor7_params(3, 2, 6, 3)  # rbar in {2, 3}: use the basic construction
    with pytest.raises(ValueError):
        cor7_params(3, 2, 8, 6)  # composite rbar: use multi-base directly
    with pytest.raises(ValueError):
        homogeneous_params(3, 3, 2, v=1)


def test_build_c1_small():
    inst = build(c1_params(3, 2, 3, 2))
    assert inst.alpha == 2  # 2^((3-1)/2) with the smallest primitive root
    assert inst.radix.weights == (1, 2, 4)
    flat = inst.code.eval_points
    assert len(set(flat)) == 6
    # every point is zeta^exp * alpha^j
    zeta = inst.field.zeta
    for e in range(1, 4):
        for j in range(1, 3):
            expect = zeta ** inst.radix.weights[e - 1] * pow(2, j, 3)
            assert flat[inst.code.node_index(e, j) - 1] == expect


def test_build_c2_divisible():
    inst = build(c2_params(3, 2, 6, (2, 2)))
    assert inst.radix.weights == (1, 2, 4, 8, 16, 32)
    assert len(set(inst.code.eval_points)) == 12


def test_build_c2_remainder():
    inst = build(c2_params(3, 2, 5, (2, 2)))
    assert inst.radix.weights == (1, 2, 4, 8, 16)
    assert inst.params.l == 32
    assert len(set(inst.code.eval_points)) == 10


def test_build_cor7():
    inst = build(cor7_params(3, 2, 6, 5))
    assert inst.params.l == 64
    assert inst.code.k == 2  # the code keeps its true dimension
    assert inst.radix.weights == (1, 2, 4, 8, 16, 32)


def test_build_homogeneous():
    inst = build(homogeneous_params(3, 3, 2))
    assert inst.params.u == 1 and inst.params.n == 3
    assert inst.alpha == 1  # order u = 1
    assert len(set(inst.code.eval_points)) == 3


def test_build_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        build(replace(c1_params(3, 2, 3, 2), mode="C3"))


def test_digit_system_capacity():
    for params in (
        c1_params(3, 2, 3, 2),
        c2_params(3, 2, 6, (2, 2)),
        c2_params(3, 2, 5, (2, 2)),
        cor7_params(3, 2, 6, 5),
    ):
        assert digit_system(params).capacity == params.l


def test_rack_wy():
    p = c2_params(3, 2, 6, (2, 2))
    assert [rack_wy(p, e) for e in range(1, 7)] == [
        (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2),
    ]


def test_repair_family_example():
    inst = build(c1_params(3, 2, 3, 2))
    node = inst.code.node_index(2, 1)
    scheme = repair_family(inst, node)
    assert scheme.index_set == (0, 1, 4, 5)
    assert len(scheme.descriptors) == 8
    degrees = {inst.params.u * s for (_, s) in scheme.descriptors}
    assert degrees == {0, 2}
    # identical scheme for every node in the same rack
    other = repair_family(inst, inst.code.node_index(2, 2))
    assert other.index_set == scheme.index_set
    assert other.descriptors == scheme.descriptors


def test_family_size_is_l():
    for params in (
        c1_params(3, 2, 3, 2),
        c2_params(3, 2, 6, (2, 2)),
        c2_params(3, 2, 5, (2, 2)),
        cor7_params(3, 2, 6, 5),
    ):
        inst = build(params)
        for node in (1, params.n):
            scheme = repair_family(inst, node)
            assert len(scheme.descriptors) == params.l
            assert len(scheme.index_set) * params.rbar_eff == params.l


def test_degree_bound():
    for params in (c1_params(3, 2, 3, 2), c2_params(3, 2, 6, (2, 2)), cor7_params(3, 2, 6, 5)):
        inst = build(params)
        scheme = repair_family(inst, 1)
        for _, s in scheme.descriptors:
            assert params.u * s <= params.u * params.rbar_eff - params.u <= params.n - params.k - 1


def test_rank_condition_c1_all_nodes():
    inst = build(c1_params(3, 2, 3, 2))
    for node in range(1, 7):
        check = verify_rank_condition(inst, node)
        assert check.ok and check.rank == 8
        assert check.scheme.rank_verified


def test_rank_condition_c2_all_nodes():
    inst = build(c2_params(3, 2, 6, (2, 2)))
    for node in range(1, 13):
        check = verify_rank_condition(inst, node)
        assert check.ok and check.rank == 64


def test_rank_condition_remainder_and_cor7():
    inst = build(c2_params(3, 2, 5, (2, 2)))
    for node in range(1, 11):
        assert verify_rank_condition(inst, node).rank == 32
    inst = build(cor7_params(3, 2, 6, 5))
    for node in (1, 6, 12):
        assert verify_rank_condition(inst, node).rank == 64


def test_rank_condition_homogeneous():
    inst = build(homogeneous_params(3, 3, 2))
    for node in (1, 2, 3):
        assert verify_rank_condition(inst, node).rank == 8


def test_ablated_family_drops_rank():
    inst = build(c1_params(3, 2, 3, 2))
    scheme = repair_family(inst, 1)
    values = FamilyEvaluator(inst, scheme).at(scheme.rack)
    assert rank_over_base(values).rank == 8
    assert rank_over_base(values[1:]).rank == 7  # drop one (t, s)


@pytest.mark.parametrize("params", [
    c1_params(3, 2, 3, 2),
    c2_params(3, 2, 6, (2, 2)),
    c2_params(3, 2, 5, (2, 2)),
    cor7_params(3, 2, 6, 5),
    homogeneous_params(3, 3, 2),
    c1_params(5, 4, 3, 2, v=2),
], ids=["C1", "C2", "C2-remainder", "Cor7", "homogeneous", "C1-q5-v2"])
def test_evaluations_position_independent(params):
    # the power-table rows equal direct evaluation at every point, so
    # g(alpha_(e,j)) does not depend on j; one failed node per rack.  Every
    # node's rows are entries of the code's one power table, not copies.
    inst = build(params)
    table = {id(p) for p in inst.beta_powers}
    for host in range(1, params.nbar + 1):
        scheme = repair_family(inst, inst.code.node_index(host, 1))
        assert all(id(v) in table for row in scheme.rows for v in row)
        ev = FamilyEvaluator(inst, scheme)
        for e in range(1, params.nbar + 1):
            for j in range(1, params.u + 1):
                assert scheme.rows[e - 1] == ev.at(e, j)


def test_c1_evaluated_set_is_zeta_u_powers():
    inst = build(c1_params(3, 2, 3, 2))
    scheme = repair_family(inst, 3)
    values = FamilyEvaluator(inst, scheme).at(scheme.rack)
    zu = inst.field.zeta**2
    powers = {zu**a for a in range(8)}
    assert set(values) == powers


def test_v_offset_instance():
    # v > 0 exercises k = kbar * u + v; q = 5, u = 4 | q - 1
    params = c1_params(5, 4, 3, 2, v=2)
    assert params.k == 6 and params.n == 12
    inst = build(params)
    assert len(set(inst.code.eval_points)) == 12
    check = verify_rank_condition(inst, 1)
    assert check.ok and check.rank == 8
