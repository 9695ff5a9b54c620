"""Reference irreducible search: the tests' oracle for `gf.find_irreducible`.

`irreducibles` scans the monic polynomials of degree l over GF(q) in counting
order of the non-leading coefficients (constant term fastest) and keeps those
that pass a per-degree distinct-degree sieve: one gcd of x^(q^d) - x with f
for every d <= l/2.  x^(q^d) comes from d products with the matrix of the
GF(q)-linear map h -> h^q mod f, built by repeated multiplication by x.  It
never reads `rackrepair.gf`: its polynomial division, gcd and search order
are its own, so it shares no code with the blocked sieve it checks.

Polynomials are 1-d int64 arrays, lowest degree first.
"""

import itertools

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


def irreducibles(q, l):
    """The monic irreducible polynomials of degree l >= 2 over GF(q), in
    counting order, as coefficient tuples (leading 1 last)."""
    for digits in itertools.product(range(q), repeat=l):
        f = np.array(digits[::-1] + (1,), dtype=np.int64)
        if f[0] and not has_root(f, q) and passes_sieve(f, q):
            yield tuple(int(c) for c in f)
