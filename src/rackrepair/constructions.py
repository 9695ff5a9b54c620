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
so one rule lays out every instance from its block of bases, and one rule
picks every family: rack e's index set is the t in [0, l) whose
m consecutive digits of the instance's radix system vanish, starting at
position e and wrapping past the last position.  Every generated family is a
set of monomials g_(t,s)(x) = zeta^(ut) x^(us); the rank-l repair condition
is verified, never assumed, and the check of a node's rack (`RankCheck`) is
also the node's bandwidth report: helper ranks, their sum b, the
construction's `bounds` and b / b_min.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import prod

import numpy as np

from .gf import GF, ExtensionField, FieldElement, check_field_size, rank_over_base, reduce_residues
from .numbertheory import factorize, is_prime
from .radix import RadixSystem, index_set, multi_base_radices, window
from .rs import CodeSpec

MODES = ("C1", "C2", "C2-remainder", "Cor7", "homogeneous")


@dataclass(frozen=True)
class SchemeParams:
    """Validated integer parameters of one construction instance.  The
    digit system is the multi-base expansion of `bases` over nbar positions:
    (rbar,) in the basic modes, the primes of rbar in C2, those of rbar - 1
    in Cor7."""

    mode: str
    q: int
    u: int
    nbar: int
    rbar: int
    bases: tuple[int, ...]
    v: int
    # derived
    rbar_eff: int
    m: int
    h: int
    nprime: int
    l: int
    k: int
    n: int
    kprime: int | None


def _scheme(mode: str, q: int, u: int, nbar: int, rbar: int, bases: tuple[int, ...],
            v: int) -> SchemeParams:
    """The one layout rule: m = len(bases), nbar = nprime m + h, rbar_eff =
    p_1 ... p_m and l = rbar_eff^nprime p_1 ... p_h.  The code's dimension
    is k = (nbar - rbar) u + v; when rbar_eff != rbar the repair family is
    the one for k' = (nbar - rbar_eff) u + v.  Refuses, before any field is
    built, bad layout integers, then a field beyond `check_field_size` (l
    formed only below 2^64), and only then a q that is not prime, bad u or
    v, and a rack whose digit window has no index set (`radix.window`)."""
    if rbar < 2:
        raise ValueError("need rbar >= 2")
    if nbar - rbar < 1:
        raise ValueError("need nbar - rbar >= 1")
    m = len(bases)
    nprime, h = divmod(nbar, m)
    if nprime < 2:
        raise ValueError("need floor(nbar / m) >= 2")
    rbar_eff = prod(bases)
    l_floor = nprime * (rbar_eff.bit_length() - 1)  # l >= 2^l_floor
    l = rbar_eff**nprime * prod(bases[:h]) if l_floor < 64 else None
    check_field_size(q, l, l_floor)
    if not is_prime(q):
        raise ValueError(f"q = {q} must be prime")
    if u < 1 or (q - 1) % u != 0:
        raise ValueError(f"u = {u} must be a positive divisor of q - 1 = {q - 1}")
    if not 0 <= v <= u - 1:
        raise ValueError(f"v = {v} must lie in [0, {u - 1}]")
    radices = multi_base_radices(bases, nbar)
    for e in range(1, nbar + 1):
        window(radices, e, m)
    return SchemeParams(
        mode=mode, q=q, u=u, nbar=nbar, rbar=rbar, bases=bases, v=v,
        rbar_eff=rbar_eff, m=m, h=h, nprime=nprime, l=l, k=(nbar - rbar) * u + v, n=nbar * u,
        kprime=(nbar - rbar_eff) * u + v if rbar_eff != rbar else None,
    )


def _refuse_unformable(q: int, nbar: int, rbar: int):
    """The refusals that come before any primality test or factoring of
    rbar: nbar - rbar >= 1, and l >= 2^nbar (every radix is at least 2)
    within the field limits.  Past them rbar < nbar < 64."""
    if nbar - rbar < 1:
        raise ValueError("need nbar - rbar >= 1")
    if nbar >= 64:
        check_field_size(q, None, nbar)


def c1_params(q: int, u: int, nbar: int, rbar: int, v: int = 0) -> SchemeParams:
    """Parameters for the basic construction (l = rbar^nbar)."""
    return _scheme("C1", q, u, nbar, rbar, (rbar,), v)


def homogeneous_params(q: int, nbar: int, rbar: int, v: int = 0) -> SchemeParams:
    """u = 1 degeneration: every node is its own rack."""
    if v != 0:
        raise ValueError("v must be 0 when u = 1")
    return _scheme("homogeneous", q, 1, nbar, rbar, (rbar,), 0)


def c2_params(q: int, u: int, nbar: int, primes, v: int = 0) -> SchemeParams:
    """Parameters for the multi-base construction (rbar = p_1 * ... * p_m)."""
    primes = tuple(int(p) for p in primes)
    if len(primes) < 2:
        raise ValueError("the multi-base construction needs m >= 2 primes")
    bad = [p for p in primes if p < 2]
    if not bad:
        _refuse_unformable(q, nbar, prod(primes))
        bad = [p for p in primes if not is_prime(p)]
    if bad:
        raise ValueError(f"{bad[0]} in the prime list is not prime")
    mode = "C2" if nbar % len(primes) == 0 else "C2-remainder"
    return _scheme(mode, q, u, nbar, prod(primes), primes, v)


def cor7_params(q: int, u: int, nbar: int, rbar: int, v: int = 0) -> SchemeParams:
    """Prime rbar >= 5: repair with the multi-base system of rbar' = rbar - 1.

    The code keeps its true dimension k = (nbar - rbar) u + v; the repair
    family is the one for the larger dimension k' = (nbar - rbar') u + v,
    which stays valid because its polynomial degrees fit under n - k' - 1.
    """
    if rbar >= 5:
        _refuse_unformable(q, nbar, rbar)
    if rbar < 5 or not is_prime(rbar):
        raise ValueError(f"Cor7 needs a prime rbar >= 5, got rbar = {rbar}")
    return _scheme("Cor7", q, u, nbar, rbar, tuple(factorize(rbar - 1)), v)


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
        from which `verify_rank_condition` reads every family's values,
        doubled from [1, beta] by `ExtensionField.powers`."""
        params = self.params
        count = params.l + (params.rbar_eff - 1) * max(self.radix.weights)
        return self.field.powers(self.field.zeta ** params.u, count)

    @functools.cached_property
    def rack_memo(self) -> dict:
        """The rack `verify_rank_condition` checked last, with its `RankCheck`."""
        return {}


def build(params: SchemeParams) -> CodeInstance:
    """Construct the field, evaluation points, and code for validated params.

    Asserts, once per code, the identity every family's values rest on: each
    point of rack e has point^u = beta^exponent(e) with beta = zeta^u, so
    zeta^(ut) point^(us) = beta^(t + s * exponent(e)) for every monomial.
    """
    if params.mode not in MODES:
        raise ValueError(f"unknown mode {params.mode!r}")
    check_field_size(params.q, params.l)
    radix = RadixSystem(multi_base_radices(params.bases, params.nbar))
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


@dataclass(frozen=True)
class BoundSet:
    """Cut-set lower bound, the applicable upper bound (if any), its case
    tag, and whether the upper bound is a theorem for these parameters or
    informational only."""

    b_min: Fraction
    upper: Fraction | None
    case: str
    enforced: bool

    def violations(self, b: int) -> tuple[str, ...]:
        """One finding per bound that bandwidth b breaks: the cut-set bound
        always, the upper bound only where it is enforced."""
        out = []
        if b < self.b_min:
            out.append(f"cut-set bound violated: b = {b} < {self.b_min}")
        if self.enforced and self.upper is not None and b >= self.upper:
            out.append(f"upper bound violated: b = {b} >= {self.upper} (case {self.case})")
        return tuple(out)


def bounds(params: SchemeParams, node: int) -> BoundSet:
    """Bound set for repairing `node`: always the cut-set bound, plus the
    mode- and case-specific upper bound.

    Basic modes use the single (nbar+1)l/rbar bound.  Multi-base modes pick
    the case by the failed rack's block index w (the w <= nprime - 3 formula
    is applied down to w = 0).  The prime-rbar adaptation computes the upper
    bound with rbar' = rbar - 1 but keeps the true rbar in the cut-set bound.
    Upper bounds are enforced only where they are theorems: basic modes, and
    multi-base modes with no remainder block.
    """
    rack = (node - 1) // params.u + 1
    l = params.l
    b_min = Fraction((params.nbar - 1) * l, params.rbar)
    if params.mode in ("C1", "homogeneous"):
        return BoundSet(b_min, Fraction((params.nbar + 1) * l, params.rbar), "thm8", True)
    re = params.rbar_eff
    w, _ = rack_wy(params, rack)
    if w <= params.nprime - 3:
        case, num = "i", (params.nbar - 1) + 3 * re + 3 * params.m + 1
    elif w == params.nprime - 2:
        case, num = "ii", (params.nbar - 1) + (params.m + 3) * re + 4
    elif w == params.nprime - 1:
        case, num = "iii", (params.nbar - 1) + (params.m + 1) * re + 2
    else:  # remainder rack beyond the full blocks: no case formula exists
        return BoundSet(b_min, None, "n/a", False)
    return BoundSet(b_min, Fraction(num * l, re), case, params.h == 0)


# ---------------------------------------------------------------------------
# repair families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepairScheme:
    """The polynomial family {g_(t,s)(x) = zeta^(ut) x^(us)} for one failed
    node as integers: its rack, index set and (t, s) exponent descriptors
    in a fixed order (t ascending, then s ascending).  At every point of
    rack e, g_(t,s) is beta^(t + s * exponent(e)) with beta = zeta^u."""

    node: int
    rack: int
    index_set: tuple[int, ...]
    descriptors: tuple[tuple[int, int], ...]


def repair_family(instance: CodeInstance, node: int) -> RepairScheme:
    """The failed node's family: its index set and descriptors.  Index-set
    size and degree bounds are asserted here; its values and its rank are
    `verify_rank_condition`'s job."""
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
    return RepairScheme(node=node, rack=e, index_set=t_set, descriptors=descriptors)


@dataclass(frozen=True)
class RankCheck:
    """A rack's rank check, its repair plan and its nodes' bandwidth report.

    The report: `per_rack`, (rack, b_e) for every helper rack in rack
    order, `b` the sum of the b_e with its `bounds`, and `ratio` b / b_min.
    The plan: each helper's basis (`bases`, in `per_rack` order), the
    stacked payload map, an (nbar - 1, max b_e, l) array whose slice i
    holds the i-th helper's P_e in its first b_e rows (a view) and zeros
    below, so that one batched product forms every payload (each still a
    sum of l residue products, within `residue_dtype`'s bound), its read
    index `payload_at`, the flat positions of the b rows above the padding,
    and the decoder of the rack's first node (None below rank l).
    `without_plan` drops the plan and keeps the report.  The plan's algebra is
    `repair.RepairSession`'s.  Equality compares `ok`, `rank` and `scheme`."""

    ok: bool
    rank: int
    scheme: RepairScheme
    per_rack: tuple[tuple[int, int], ...] = dataclasses.field(compare=False)
    bases: tuple[tuple, ...] | None = dataclasses.field(compare=False, repr=False)
    payload_map: np.ndarray | None = dataclasses.field(compare=False, repr=False)
    payload_at: np.ndarray | None = dataclasses.field(compare=False, repr=False)
    decoder: np.ndarray | None = dataclasses.field(compare=False, repr=False)
    b: int = dataclasses.field(compare=False)
    bounds: BoundSet = dataclasses.field(compare=False)
    ratio: Fraction = dataclasses.field(compare=False)

    def without_plan(self) -> RankCheck:
        """This check without its plan (the bases, the payload map, its read
        index and the decoder): the bandwidth report alone, which is what a
        sweep's rows keep of every node."""
        return replace(self, bases=None, payload_map=None, payload_at=None, decoder=None)


def verify_rank_condition(instance: CodeInstance, node: int) -> RankCheck:
    """Check that the failed node's family has rank_B = l at its own rack,
    and compile the rack's repair plan in the same pass.

    This is the one place a family turns into field values: rack e's
    exponents t + s * exponent(e) are formed once per descriptor, and its
    row is read from `CodeInstance.beta_powers`.  Whenever h = 0, the sorted
    host exponents must be exactly scale * [0, l-1], where scale is the
    radix weight of position y on the last block and 1 elsewhere (1 in the
    basic modes, where the evaluated set is {(zeta^u)^a : a in [0, l-1]}).
    The rank is l exactly when the host row has a dual basis mu, so that is
    the check (`rank_over_base` only reports a failed rank); no point is
    evaluated here.  Each helper rack's row is reduced once, for its basis
    and coordinates, and its P_e is written into the rack's one stacked
    payload map, indexed above its padding; at rank l mu gives the decoder;
    no row and no mu is kept.
    All of it, `bounds` included, depends on the node only through its
    rack, so `CodeInstance.rack_memo` keeps the check of the rack checked
    last, which every node of that rack shares.
    """
    params, field, code = instance.params, instance.field, instance.code
    host, _ = code.rack_of(node)
    memo = instance.rack_memo
    if host not in memo:
        memo.clear()
        scheme, weights = repair_family(instance, node), instance.radix.weights
        exponents = [[t + s * x for (t, s) in scheme.descriptors] for x in weights]
        if params.h == 0:
            w, y = rack_wy(params, host)
            scale = weights[y - 1] if w == params.nprime - 1 else 1
            if sorted(exponents[host - 1]) != [scale * a for a in range(params.l)]:
                raise AssertionError("coset decomposition of the host exponents failed")
        rows = [[instance.beta_powers[a] for a in row] for row in exponents]
        try:
            mu, rank = field.dual_basis(rows[host - 1]), params.l
        except ValueError:  # rank deficient: reduce once more to report the rank
            mu, rank = None, rank_over_base(rows[host - 1]).rank
        q, dtype = params.q, code.weight_matrices.dtype
        tf = field._trace_form.astype(dtype)
        racks = [e for e in range(1, params.nbar + 1) if e != host]
        bases, coords = [], []
        for e in racks:
            profile = rank_over_base(rows[e - 1])
            bases.append(tuple(rows[e - 1][p] for p in profile.pivots))
            coords.append(profile.coords.astype(dtype))
        sizes = [len(basis) for basis in bases]
        payload_map = np.zeros((len(bases), max(sizes), params.l), dtype)
        for block, basis in zip(payload_map, bases):
            basis_mat = np.stack([z.vec for z in basis]).astype(dtype)
            block[:len(basis)] = reduce_residues(basis_mat @ tf, q)
        payload_at = np.flatnonzero(np.arange(max(sizes)) < np.array(sizes)[:, None])
        decoder = None
        if mu is not None:
            lam_inv = code.weight_inverses[(host - 1) * params.u]
            host_map = reduce_residues(-field.mul_matrix(lam_inv, dtype), q)
            expand = reduce_residues(host_map @ mu.T.astype(dtype), q)
            decoder = np.concatenate(
                [host_map] + [reduce_residues(expand @ c, q) for c in coords], axis=1)
        b, bset = sum(sizes), bounds(params, node)
        memo[host] = RankCheck(ok=rank == params.l, rank=rank, scheme=scheme,
                               per_rack=tuple(zip(racks, sizes)), bases=tuple(bases),
                               payload_map=payload_map, payload_at=payload_at, decoder=decoder,
                               b=b, bounds=bset, ratio=Fraction(b) / bset.b_min)
    check = memo[host]
    return replace(check, scheme=replace(check.scheme, node=node))
