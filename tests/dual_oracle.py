"""Dual codewords from low-degree polynomials: the tests' check that
`rs.dual_weights` spans the dual code.

For deg g <= n - k - 1, (lambda_1 g(alpha_1), ..., lambda_n g(alpha_n)) is a
dual codeword, so its inner product with every codeword is zero.  Nothing in
the package reads it.
"""

from rackrepair.rs import CodeSpec, dual_weights


def _horner(g, x):
    """g(x) for coefficients g, lowest degree first."""
    acc = x.field.zero
    for c in reversed(g):
        acc = acc * x + c
    return acc


def dual_codeword(g, code: CodeSpec):
    """(lambda_1 g(alpha_1), ..., lambda_n g(alpha_n)) for deg g <= n - k - 1."""
    if len(g) > code.r:
        raise ValueError(
            f"polynomial degree exceeds n - k - 1 = {code.r - 1}; "
            "inconsistent with the code rate"
        )
    lam = dual_weights(code)
    return tuple(w * _horner(g, a) for w, a in zip(lam, code.eval_points))
