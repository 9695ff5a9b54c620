"""Integer primality and factoring, sized for certifying field orders.

Everything here is deterministic: Miller-Rabin runs a fixed witness set
(provably sufficient below 3.3e24, extended with derived witnesses above,
where a pass is strong evidence but not a proof) and Pollard's rho uses the
Brent cycle variant with a fixed parameter sweep, so repeated runs factor
the same number the same way.

`factorize(n, d)` takes the cyclotomic index d of a field-order piece
Phi_d(q): its primes divide d or are 1 mod k (k = d for even d, 2d for odd
d), so trial division runs over that residue class only and rho iterates
y -> y^k + c (Brent & Pollard, 1981).  Rho stops after `_RHO_BUDGET` map
steps with a `ValueError` naming the cofactor it could not split: a count
of steps, not a clock, bounds every factorization.  A `StepBudget`, the
type that bounds the modulus search in `gf` too, is shared by the calls
it is passed to, so one budget bounds a whole field order.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

# Witnesses proven sufficient for all n < 3_317_044_064_679_887_385_961_981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_LIMIT = 3_317_044_064_679_887_385_961_981

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_TRIAL_LIMIT = 100_000  # trial division stops below this
_RHO_BUDGET = 1 << 20  # map steps per budget: about 3 s at 130 bits and k = 256


def is_prime(n: int) -> bool:
    """Deterministic primality test (strong pseudoprime rounds)."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = list(_MR_WITNESSES)
    if n >= _MR_PROVEN_LIMIT:
        # Extra derived witnesses; deterministic in n.
        witnesses += [(37 + k * k + n % (k + 101)) % (n - 3) + 2 for k in range(24)]
    for a in witnesses:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class StepBudget:
    """The steps a bounded search may still take, `total` at the start,
    shared by every call that is given this object."""

    def __init__(self, total: int, refusal: str):
        self.total = self.left = total
        self.refusal = refusal

    def spend(self, steps: int, *, reserve: int = 0, **fields):
        """Take `steps`, or raise `ValueError(refusal.format(total=total,
        **fields))` when they and `reserve` more are more than is left."""
        if steps + reserve > self.left:
            raise ValueError(self.refusal.format(total=self.total, **fields))
        self.left -= steps


def rho_budget() -> StepBudget:
    """A fresh budget of `_RHO_BUDGET` Pollard rho map steps."""
    return StepBudget(_RHO_BUDGET, "Pollard rho found no factor of {n} within its "
                                   "budget of {total} steps")


def _pollard_brent(n: int, k: int, budget: StepBudget) -> int:
    """Nontrivial factor of an odd composite n (Brent's cycle finding) with
    the map y -> y^k + c, for c = 1, 2, ... in turn.

    Every map step is spent from `budget`, over all the c tried; a block of
    steps that would pass it raises `ValueError` naming n first, so the
    result never depends on wall time."""
    for c in itertools.count(1):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            budget.spend(r, n=n)
            for _ in range(r):
                y = (pow(y, k, n) + c) % n
            i = 0
            while i < r and g == 1:
                ys = y
                budget.spend(min(m, r - i), n=n)
                for _ in range(min(m, r - i)):
                    y = (pow(y, k, n) + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                i += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                budget.spend(1, n=n)
                ys = (pow(ys, k, n) + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int, d: int = 1, budget: StepBudget | None = None) -> list[int]:
    """Prime factorization of n >= 1 as a sorted list with multiplicity.

    d >= 1 says where n's prime factors lie, for n a factor of the
    cyclotomic value Phi_d(q): each prime factor of Phi_d(q) divides d or
    is 1 mod k, where k = d for even d and k = 2d for odd d.  n is divided
    by the 15 trial primes, then only by the numbers 1 + jk from 53 up to
    `_TRIAL_LIMIT` while their square stays at most the cofactor.  A
    composite left over is split at its gcd with d when that is a proper
    factor, and otherwise by Pollard rho with the map y -> y^k + c, whose
    cycles are about sqrt(k) times shorter on primes 1 mod k (Brent &
    Pollard, 1981).  d = 1 is the odd-number loop and the map y^2 + c.
    Any d gives the same factorization of any n; a d that does not fit n
    only costs time.  Rho spends its steps from `budget`, a fresh
    `rho_budget()` when None, and a cofactor that it cannot split within
    what is left raises `ValueError`."""
    if n < 1 or d < 1:
        raise ValueError("factorize expects n >= 1 and d >= 1")
    k = d if d % 2 == 0 else 2 * d
    budget = budget or rho_budget()
    # The divisors found, then the cofactor; each is prime or split below
    # (a 1 + jk that divides n is prime when d fits n).
    found: list[int] = []
    for p in itertools.chain(_TRIAL_PRIMES, range(1 + k * -(-52 // k), _TRIAL_LIMIT, k)):
        if p * p > n:
            break
        while n % p == 0:
            found.append(p)
            n //= p
    found.append(n)
    out: list[int] = []
    while found:
        m = found.pop()
        if m == 1:
            continue
        if is_prime(m):
            out.append(m)
            continue
        g = math.gcd(m, d)
        f = g if 1 < g < m else _pollard_brent(m, k, budget)
        found += [f, m // f]
    out.sort()
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in Counter(factorize(n)).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def cyclotomic_value(d: int, q: int) -> int:
    """Value of the d-th cyclotomic polynomial at the integer q.

    Computed from the Moebius product over divisors of d; the division is
    exact, so the result is exact for unbounded integers.
    """
    if d < 1 or q < 2:
        raise ValueError("need d >= 1 and q >= 2")
    num, den = 1, 1
    for e in divisors(d):
        mu = _mobius(d // e)
        if mu == 1:
            num *= q**e - 1
        elif mu == -1:
            den *= q**e - 1
    if num % den:
        raise AssertionError(f"Phi_{d}({q}) is not an integer: the Moebius product is broken")
    return num // den


def _mobius(n: int) -> int:
    fac = factorize(n)
    if len(fac) != len(set(fac)):
        return 0
    return -1 if len(fac) % 2 else 1
