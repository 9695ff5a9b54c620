from dataclasses import fields, replace

import pytest
from family_oracle import FamilyEvaluator

from rackrepair import constructions
from rackrepair.constructions import (
    build,
    c1_params,
    c2_params,
    cor7_params,
    homogeneous_params,
    rack_wy,
    repair_family,
    verify_rank_condition,
)
from rackrepair.gf import rank_over_base
from rackrepair.radix import multi_base_radices


def test_c1_params_derivation():
    p = c1_params(3, 2, 3, 2)
    assert (p.l, p.n, p.k, p.v) == (8, 6, 2, 0)
    assert p.mode == "C1" and p.rbar_eff == 2


def test_c2_params_derivation():
    p = c2_params(3, 2, 6, (2, 2))
    assert (p.rbar, p.m, p.h, p.nprime, p.l, p.n, p.k) == (4, 2, 0, 3, 64, 12, 4)
    p = c2_params(3, 2, 5, (2, 2))
    assert p.mode == "C2-remainder"
    assert (p.h, p.l, p.n, p.k) == (1, 32, 10, 2)


def test_cor7_params_derivation():
    p = cor7_params(3, 2, 6, 5)
    assert (p.rbar, p.rbar_eff, p.bases, p.l, p.k, p.kprime) == (5, 4, (2, 2), 64, 2, 4)
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
    # a value that is not prime is named as such, not called composite
    for rbar in (1, 0, -5, 4):
        with pytest.raises(ValueError, match=f"prime rbar >= 5, got rbar = {rbar}$"):
            cor7_params(3, 2, 8, rbar)
    for p in (0, -2):
        with pytest.raises(ValueError, match=f"^{p} in the prime list is not prime$"):
            c2_params(3, 2, 6, (p, 2))
    # u must be a positive divisor of q - 1: -2 divides 2 but is refused
    for u in (-2, 0, 4):
        with pytest.raises(ValueError, match=f"^u = {u} must be a positive divisor of q - 1 = 2$"):
            c1_params(3, u, 3, 2)


def test_params_refuse_oversized_fields():
    # every constructor refuses a field beyond the limits before any other
    # work: l = 2^16000 for C1, 4^13 for C2 and 4^13 for Cor7's rbar - 1 system
    for make in (lambda: c1_params(3, 2, 16000, 2), lambda: c2_params(3, 2, 26, (2, 2)),
                 lambda: cor7_params(3, 2, 26, 5)):
        with pytest.raises(ValueError, match=r"is too large: need q <= 65537 and l <= 4096"):
            make()


def test_params_refuse_sizes_before_primality_and_factoring(monkeypatch):
    # nbar - rbar and the floor l >= 2^nbar come first: no listed prime or
    # Cor7 rbar is tested or factored before them
    def refused(n, *args):
        raise AssertionError("primality test or factoring ran before the size checks")

    monkeypatch.setattr(constructions, "is_prime", refused)
    monkeypatch.setattr(constructions, "factorize", refused)
    for make in (lambda: c2_params(3, 2, 3, (2, 2**89 - 1)),
                 lambda: cor7_params(3, 2, 3, 2**89 - 1)):
        with pytest.raises(ValueError, match=r"^need nbar - rbar >= 1$"):
            make()
    for make in (lambda: c2_params(3, 2, 100, (2, 2)), lambda: cor7_params(3, 2, 100, 5)):
        with pytest.raises(ValueError, match=r"l >= 2\^100 is too large"):
            make()


def test_build_c1_small():
    inst = build(c1_params(3, 2, 3, 2))
    assert inst.code.alpha == 2  # 2^((3-1)/2) with the smallest primitive root
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
    assert inst.code.alpha == 1  # order u = 1
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
        homogeneous_params(3, 3, 2),
    ):
        radix = build(params).radix
        assert radix.capacity == params.l
        assert radix.radices == multi_base_radices(params.bases, params.nbar)


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
    # the power table's beta^(t + s * exponent(e)) equals direct evaluation
    # at every point, so g(alpha_(e,j)) does not depend on j; one failed
    # node per rack
    inst = build(params)
    for host in range(1, params.nbar + 1):
        scheme = repair_family(inst, inst.code.node_index(host, 1))
        ev = FamilyEvaluator(inst, scheme)
        for e, x in enumerate(inst.radix.weights, 1):
            values = tuple(inst.beta_powers[t + s * x] for (t, s) in scheme.descriptors)
            for j in range(1, params.u + 1):
                assert values == ev.at(e, j)


def _int_data(v):
    return type(v) is int or type(v) is tuple and all(_int_data(x) for x in v)


@pytest.mark.parametrize("params", [
    c1_params(3, 2, 3, 2),
    c2_params(3, 2, 6, (2, 2)),
    c2_params(3, 2, 5, (2, 2)),
    cor7_params(3, 2, 6, 5),
    homogeneous_params(3, 3, 2),
    c2_params(13, 3, 6, (2, 2)),
], ids=["C1", "C2", "C2-remainder", "Cor7", "homogeneous", "C2-q13"])
def test_schemes_are_integer_data(params):
    # a scheme holds no field element: every attribute of a node's family
    # and of its rank check's scheme is an int or a nested tuple of ints,
    # and the two compare equal
    inst = build(params)
    for node in range(1, params.n + 1):
        fresh, checked = repair_family(inst, node), verify_rank_condition(inst, node).scheme
        for scheme in (fresh, checked):
            assert all(_int_data(getattr(scheme, f.name)) for f in fields(scheme))
        assert fresh == checked


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
