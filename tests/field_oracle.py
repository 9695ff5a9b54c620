"""Reference irreducible search: the tests' oracle for `gf.find_irreducible`.

`irreducibles` scans the monic polynomials of degree l over GF(q) in counting
order of the non-leading coefficients (constant term fastest) and keeps those
that pass a per-degree distinct-degree sieve: one gcd of x^(q^d) - x with f
for every d <= l/2.  x^(q^d) comes from d products with the matrix of the
GF(q)-linear map h -> h^q mod f, built by repeated multiplication by x.  It
never reads `rackrepair.gf`: its polynomial division, gcd and search order
are its own, so it shares no code with the Rabin test it checks, and
`is_irreducible` gives its verdict on one polynomial.

Polynomials are 1-d int64 arrays, lowest degree first.

`factorize` is the reference factorization for `factor_field_order`: trial
division by the 15 primes to 47 and every odd number from 53 up to 100,000,
then Pollard-Brent rho with y^2 + c and no step budget, behind its own
strong-pseudoprime test.  It never reads `rackrepair.numbertheory`.

`rref` is the reference for `gf._rref`: plain Gauss-Jordan elimination in
int64 with row swaps and a `% q` of the whole updated block at every pivot,
the elimination `gf._rref` used before its reduction was delayed.
"""

import itertools
import math

import numpy as np


def trim(p):
    nz = np.nonzero(p)[0]
    return p[: nz[-1] + 1] if nz.size else p[:0]


def poly_divmod(a, b, q):
    a, b = trim(a % q), trim(b % q)
    if b.size == 0:
        raise ZeroDivisionError("polynomial division by zero")
    if a.size < b.size:
        return a[:0], a
    inv_lead = pow(int(b[-1]), -1, q)
    r = a.copy()
    quo = np.zeros(a.size - b.size + 1, dtype=np.int64)
    for shift in range(a.size - b.size, -1, -1):
        c = r[shift + b.size - 1] * inv_lead % q
        if c:
            quo[shift] = c
            r[shift : shift + b.size] = (r[shift : shift + b.size] - c * b) % q
    return quo, trim(r)


def poly_gcd(a, b, q):
    """The monic gcd of a and b over GF(q); empty when both are zero."""
    a, b = trim(a % q), trim(b % q)
    while b.size:
        a, b = b, poly_divmod(a, b, q)[1]
    if a.size:
        a = a * pow(int(a[-1]), -1, q) % q
    return a


def poly_mul(a, b, q):
    return trim(np.convolve(a, b) % q)


def frobenius_matrix(f, q):
    """The l x l matrix Q over GF(q) with Q @ h = h^q mod f: column i is
    x^(i q) mod f."""
    l = f.size - 1
    Q = np.zeros((l, l), dtype=np.int64)
    cur = np.zeros(l, dtype=np.int64)
    cur[0] = 1
    for j in range((l - 1) * q + 1):
        if j % q == 0:
            Q[:, j // q] = cur
        lead = cur[-1]
        cur = (np.concatenate(([0], cur[:-1])) - lead * f[:l]) % q
    return Q


def has_root(f, q):
    for c in range(q):
        acc = 0
        for a in reversed(f.tolist()):
            acc = (acc * c + a) % q
        if acc == 0:
            return True
    return False


def passes_sieve(f, q):
    """Whether the monic f of degree l >= 2 is coprime to x^(q^d) - x for
    every d <= l/2, that is, irreducible."""
    l = f.size - 1
    Q = frobenius_matrix(f, q)
    x = np.zeros(l, dtype=np.int64)
    x[1] = 1
    h = x
    for _ in range(l // 2):
        h = Q @ h % q
        if poly_gcd(h - x, f, q).size != 1:
            return False
    return True


def is_irreducible(f, q):
    """Whether the monic f of degree >= 2 is irreducible over GF(q)."""
    return bool(f[0]) and not has_root(f, q) and passes_sieve(f, q)


def irreducibles(q, l):
    """The monic irreducible polynomials of degree l >= 2 over GF(q), in
    counting order, as coefficient tuples (leading 1 last)."""
    for digits in itertools.product(range(q), repeat=l):
        f = np.array(digits[::-1] + (1,), dtype=np.int64)
        if is_irreducible(f, q):
            yield tuple(int(c) for c in f)


# ---------------------------------------------------------------------------
# integer factoring
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n):
    """Strong-pseudoprime test to the 12 primes up to 37 (a proof below
    3.3e24) and 24 more bases derived from n above that."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = list(_SMALL_PRIMES[:12])
    if n >= 3_317_044_064_679_887_385_961_981:
        bases += [(37 + k * k + n % (k + 101)) % (n - 3) + 2 for k in range(24)]
    for a in bases:
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


def rho_factor(n):
    """A nontrivial factor of the odd composite n: Brent's cycle finding on
    y -> y^2 + c for c = 1, 2, ..."""
    for c in itertools.count(1):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n):
    """The prime factors of n >= 1, sorted, with multiplicity."""
    out = []
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out.append(p)
            n //= p
    p = 53
    while p * p <= n and p < 100_000:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out.append(m)
            continue
        f = rho_factor(m)
        stack += [f, m // f]
    return sorted(out)


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------

def rref(mat: np.ndarray, q: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of `mat` over GF(q) by Gauss-Jordan
    elimination, with its pivot columns in increasing order.  The scan stops
    once every row has a pivot: no later column can hold one."""
    R = mat % q
    rows, cols = R.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        # row r is zero left of c, so only columns c onwards change
        R[r, c:] = R[r, c:] * pow(int(R[r, c]), -1, q) % q
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        if others.size:
            R[others, c:] = (R[others, c:] - np.outer(R[others, c], R[r, c:])) % q
        pivots.append(c)
    return R, tuple(pivots)
