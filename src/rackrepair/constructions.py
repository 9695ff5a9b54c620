"""Evaluation points and repair-polynomial families.

Four flavors share one engine:

* basic (C1): one rack per power-of-rbar exponent, sub-packetization rbar^nbar;
* multi-base (C2): rack exponents follow the mixed-radix weights of the prime
  decomposition rbar = p_1 ... p_m, shrinking l to roughly rbar^(nbar/m),
  including the remainder layout when m does not divide nbar;
* prime-rbar (Cor7): rbar >= 5 prime is handled by running the multi-base
  machinery for rbar' = rbar - 1 while the code keeps its true dimension;
* homogeneous: the u = 1 degeneration of the basic construction.

The basic rbar-ary expansion is the one-base (m = 1) multi-base expansion,
so one rule picks every family: rack e's index set is the t in [0, l) whose
m consecutive digits of the instance's radix system vanish, starting at
position e and wrapping past the last position.  Every generated family is a
set of monomials g_(t,s)(x) = zeta^(ut) x^(us); the rank-l repair condition
is verified, never assumed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from math import prod

from .gf import GF, ExtensionField, FieldElement, rank_over_base
from .numbertheory import factorize, is_prime
from .radix import RadixSystem, index_set
from .rs import CodeSpec

MODES = ("C1", "C2", "C2-remainder", "Cor7", "homogeneous")


@dataclass(frozen=True)
class SchemeParams:
    """Validated integer parameters of one construction instance."""

    mode: str
    q: int
    u: int
    nbar: int
    rbar: int
    primes: tuple[int, ...] | None
    v: int
    # derived
    rbar_eff: int
    m: int
    h: int
    nprime: int
    l: int
    kbar: int
    k: int
    n: int
    kprime: int | None


def _validate_common(q: int, u: int, nbar: int, rbar: int, v: int):
    if not is_prime(q):
        raise ValueError(f"q = {q} must be prime")
    if u < 1 or (q - 1) % u != 0:
        raise ValueError(f"u = {u} must divide q - 1 = {q - 1}")
    if not 0 <= v <= u - 1:
        raise ValueError(f"v = {v} must lie in [0, {u - 1}]")
    kbar = nbar - rbar
    if kbar < 1:
        raise ValueError("need nbar - rbar >= 1")
    k = kbar * u + v
    if k < u:
        raise ValueError("need k >= u")
    return kbar, k


def c1_params(q: int, u: int, nbar: int, rbar: int, v: int = 0, *, mode: str = "C1") -> SchemeParams:
    """Parameters for the basic construction (l = rbar^nbar)."""
    if rbar < 2:
        raise ValueError("need rbar >= 2")
    kbar, k = _validate_common(q, u, nbar, rbar, v)
    return SchemeParams(
        mode=mode, q=q, u=u, nbar=nbar, rbar=rbar, primes=None, v=v,
        rbar_eff=rbar, m=1, h=0, nprime=nbar, l=rbar**nbar,
        kbar=kbar, k=k, n=nbar * u, kprime=None,
    )


def homogeneous_params(q: int, nbar: int, rbar: int, v: int = 0) -> SchemeParams:
    """u = 1 degeneration: every node is its own rack."""
    if v != 0:
        raise ValueError("v must be 0 when u = 1")
    return c1_params(q, 1, nbar, rbar, 0, mode="homogeneous")


def c2_params(q: int, u: int, nbar: int, primes, v: int = 0) -> SchemeParams:
    """Parameters for the multi-base construction (rbar = p_1 * ... * p_m)."""
    primes = tuple(int(p) for p in primes)
    if len(primes) < 2:
        raise ValueError("the multi-base construction needs m >= 2 primes")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} in the prime list is composite")
    rbar = prod(primes)
    m = len(primes)
    nprime, h = divmod(nbar, m)
    if nprime < 2:
        raise ValueError("need floor(nbar / m) >= 2")
    kbar, k = _validate_common(q, u, nbar, rbar, v)
    l = rbar**nprime * prod(primes[:h])
    return SchemeParams(
        mode="C2" if h == 0 else "C2-remainder", q=q, u=u, nbar=nbar, rbar=rbar,
        primes=primes, v=v, rbar_eff=rbar, m=m, h=h, nprime=nprime, l=l,
        kbar=kbar, k=k, n=nbar * u, kprime=None,
    )


def cor7_params(q: int, u: int, nbar: int, rbar: int, v: int = 0) -> SchemeParams:
    """Prime rbar >= 5: repair with the multi-base system of rbar' = rbar - 1.

    The code keeps its true dimension k = (nbar - rbar) u + v; the repair
    family is the one for the larger dimension k' = (nbar - rbar') u + v,
    which stays valid because its polynomial degrees fit under n - k' - 1.
    """
    if rbar in (2, 3):
        raise ValueError("rbar = 2 or 3 needs no adaptation; use the basic construction")
    if not is_prime(rbar):
        raise ValueError("rbar is composite; use the multi-base construction directly")
    kbar, k = _validate_common(q, u, nbar, rbar, v)
    primes = tuple(factorize(rbar - 1))
    m = len(primes)
    nprime, h = divmod(nbar, m)
    if nprime < 2:
        raise ValueError("need floor(nbar / m) >= 2 for the rbar - 1 system")
    l = (rbar - 1) ** nprime * prod(primes[:h])
    kprime = (nbar - (rbar - 1)) * u + v
    return SchemeParams(
        mode="Cor7", q=q, u=u, nbar=nbar, rbar=rbar, primes=primes, v=v,
        rbar_eff=rbar - 1, m=m, h=h, nprime=nprime, l=l,
        kbar=kbar, k=k, n=nbar * u, kprime=kprime,
    )


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CodeInstance:
    """A built code: node j of rack e sits at zeta^exponent(e) * alpha^j,
    where exponent(e) is `radix.weights[e - 1]` and alpha = g^((q-1)/u) of
    order u in B, with g the certified zeta of GF(q, 1).  `code` holds the
    leaders zeta^exponent(e), alpha and the points, rack-major."""

    params: SchemeParams
    field: ExtensionField
    code: CodeSpec
    radix: RadixSystem

    @functools.cached_property
    def beta_powers(self) -> tuple[FieldElement, ...]:
        """beta^a, beta = zeta^u, for every exponent a = t + s * exponent(e)
        a repair family can take (t < l, s < rbar_eff): one table per code,
        shared by every node's rows."""
        params = self.params
        beta = self.field.zeta ** params.u
        powers = [self.field.one]
        for _ in range(params.l - 1 + (params.rbar_eff - 1) * max(self.radix.weights)):
            powers.append(powers[-1] * beta)
        return tuple(powers)

    @functools.cached_property
    def rack_memo(self) -> dict:
        """The rack `verify_rank_condition` checked last: scheme, rank, then dual basis or plan."""
        return {}


def digit_system(params: SchemeParams) -> RadixSystem:
    """The mixed-radix system housing the construction's exponents: uniform
    rbar-ary for the basic modes, multi-base of the (effective) primes
    otherwise.  Its capacity is exactly l and its weights are the rack
    exponents."""
    if params.mode in ("C1", "homogeneous"):
        return RadixSystem.uniform(params.rbar, params.nbar)
    return RadixSystem.multi_base(params.primes, params.nbar)


def build(params: SchemeParams) -> CodeInstance:
    """Construct the field, evaluation points, and code for validated params.

    Asserts, once per code, the identity every repair row rests on: each
    point of rack e has point^u = beta^exponent(e) with beta = zeta^u, so
    zeta^(ut) point^(us) = beta^(t + s * exponent(e)) for every monomial.
    """
    if params.mode not in MODES:
        raise ValueError(f"unknown mode {params.mode!r}")
    radix = digit_system(params)
    if radix.capacity != params.l:
        raise AssertionError("digit system capacity does not match l")
    field = GF(params.q, params.l)
    alpha = pow(GF(params.q, 1).zeta.coeffs[0], (params.q - 1) // params.u, params.q)
    code = CodeSpec(field=field, k=params.k, leaders=tuple(field.zeta ** x for x in radix.weights),
                    alpha=alpha, u=params.u)
    beta = field.zeta ** params.u
    if any(p ** params.u != beta ** radix.weights[i // params.u]
           for i, p in enumerate(code.eval_points)):
        raise AssertionError("point^u differs from beta^exponent(e); point table broken")
    return CodeInstance(params=params, field=field, code=code, radix=radix)


def rack_wy(params: SchemeParams, rack: int) -> tuple[int, int]:
    """Block coordinates (w, y) of a flat rack index; y = 1 in the basic modes."""
    return (rack - 1) // params.m, (rack - 1) % params.m + 1


# ---------------------------------------------------------------------------
# repair families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepairScheme:
    """The polynomial family {g_(t,s)(x) = zeta^(ut) x^(us)} for one failed
    node, as (t, s) exponent descriptors in a fixed enumeration order
    (t ascending, then s ascending), with its evaluations: row e - 1 holds
    the family's values at every point of rack e."""

    node: int
    rack: int
    index_set: tuple[int, ...]
    descriptors: tuple[tuple[int, int], ...]
    rows: tuple[tuple[FieldElement, ...], ...]
    rank_verified: bool = False


def repair_family(instance: CodeInstance, node: int) -> RepairScheme:
    """The failed node's repair plan, built in this one place: index set,
    descriptors, and rows from one power table of beta = zeta^u (row e - 1 is
    beta^(t + s * exponent(e)) per descriptor, equal to direct evaluation at
    rack e by the point identity `build` asserts).  Index-set size and degree
    bounds are asserted here; the rank is `verify_rank_condition`'s job."""
    params = instance.params
    e, _ = instance.code.rack_of(node)
    t_set = index_set(instance.radix, e, params.m)
    if len(t_set) * params.rbar_eff != params.l:
        raise AssertionError("index set size times rbar does not equal l")
    max_deg = params.u * (params.rbar_eff - 1)
    if max_deg > params.n - params.k - 1:
        raise AssertionError("repair polynomial degree exceeds n - k - 1")
    if params.kprime is not None and max_deg > params.n - params.kprime - 1:
        raise AssertionError("repair polynomial degree exceeds n - k' - 1")
    descriptors = tuple((t, s) for t in t_set for s in range(params.rbar_eff))
    powers = instance.beta_powers
    rows = tuple(tuple(powers[t + s * x] for (t, s) in descriptors)
                 for x in instance.radix.weights)
    return RepairScheme(node=node, rack=e, index_set=t_set, descriptors=descriptors, rows=rows)


@dataclass(frozen=True)
class RankCheck:
    ok: bool
    rank: int
    scheme: RepairScheme


def verify_rank_condition(instance: CodeInstance, node: int) -> RankCheck:
    """Check that the failed node's family has rank_B = l at its own rack.

    Whenever h = 0, also asserts that the sorted host exponents
    t + s * exponent(host) are exactly scale * [0, l-1], where scale is the
    radix weight of position y on the last block and 1 elsewhere (1 in the
    basic modes, where the evaluated set is {(zeta^u)^a : a in [0, l-1]}).
    The rank is l exactly when the host row of `repair_family` has a dual
    basis, so that is the check (`rank_over_base` only reports a failed
    rank); no point is evaluated here.  Both checks depend on the node only
    through its rack, so `CodeInstance.rack_memo` keeps the rack checked
    last, with the dual basis `repair.RepairSession` plans from.
    """
    params = instance.params
    host, _ = instance.code.rack_of(node)
    memo = instance.rack_memo
    if host not in memo:
        memo.clear()
        scheme = repair_family(instance, node)
        sums = sorted(t + s * instance.radix.weights[host - 1] for (t, s) in scheme.descriptors)
        if params.h == 0:
            w, y = rack_wy(params, host)
            scale = instance.radix.weights[y - 1] if w == params.nprime - 1 else 1
            if sums != [scale * a for a in range(params.l)]:
                raise AssertionError("coset decomposition of the host exponents failed")
        try:
            dual, rank = instance.field.dual_basis(scheme.rows[host - 1]), params.l
        except ValueError:  # rank deficient: reduce once more to report the rank
            dual, rank = None, rank_over_base(scheme.rows[host - 1]).rank
        memo[host] = {"scheme": scheme, "rank": rank, "dual": dual}
    scheme, rank = memo[host]["scheme"], memo[host]["rank"]
    ok = rank == params.l
    return RankCheck(ok=ok, rank=rank, scheme=replace(scheme, node=node, rank_verified=ok))
