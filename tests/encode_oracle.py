"""Reference encode with field arithmetic: the tests' oracle for `rs.encode`.

`reference_encode` evaluates the message polynomial at every point by Horner's
rule, one `FieldElement` product per coefficient and point.  It never reads a
multiplication matrix, a power table or a residue dtype, so it shares no code
with the compiled encode it checks.
"""

from rackrepair.rs import CodeSpec


def reference_encode(message, code: CodeSpec):
    """(f(alpha_1), ..., f(alpha_n)) for f with coefficients `message`,
    lowest degree first."""
    word = []
    for x in code.eval_points:
        acc = code.field.zero
        for c in reversed(message):
            acc = acc * x + c
        word.append(acc)
    return tuple(word)
