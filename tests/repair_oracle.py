"""Reference single-node repair with field arithmetic: the tests' oracle for
`RepairSession.run`.

`reference_repair` repeats the repair one field product and one trace at a
time.  It evaluates the node's family itself, with `FamilyEvaluator` (the
scheme's descriptors and the code's points), reads the weights only through
`dual_weights`, multiplies only with `FieldElement` and row-reduces only
with `field_oracle.rref`; it never touches a session, a power table, a
multiplication matrix, a weight stack, `rank_over_base` or
`ExtensionField.dual_basis`, so it shares no code with the compiled path it
checks.  The payload basis of a helper rack is the first maximal
independent subset of its values in input order (the pivot columns of
their coefficient vectors), the same basis the session sends.
"""

import numpy as np
from family_oracle import FamilyEvaluator
from field_oracle import rref

from rackrepair.constructions import CodeInstance, RepairScheme
from rackrepair.rs import dual_weights


def reference_repair(instance: CodeInstance, scheme: RepairScheme, codeword):
    """Return (((rack, payload), ...), recovered) for repairing
    `scheme.node` from `codeword`; the erased symbol is never read.

    Helper rack e sends tr(beta * sigma_e) for each basis element beta of
    its values, where sigma_e = sum of lam_j c_j over the rack.  The parity
    check gives, for every i, tr(z_i lam_f c_f) = -(h_i + tr(z_i nu)) with
    z_i the family's values at the host rack, h_i = sum_e tr(g_i(e) sigma_e)
    and nu the host survivors' sum, so lam_f c_f = -(sum_i h_i mu_i + nu) in
    the dual basis mu of the z_i.  Row i of ZT holds tr(z_i x^j), from the
    traces of x^0, ..., x^(2l-2), and rref([ZT | I]) gives mu as ZT^-1.
    """
    field, code = instance.field, instance.code
    q, l = field.q, field.l
    lam = dual_weights(code)
    node = scheme.node
    host, _ = code.rack_of(node)
    family = FamilyEvaluator(instance, scheme)

    def rack_sum(e):
        acc = field.zero
        for m in range(1, code.u + 1):
            idx = code.node_index(e, m)
            if idx != node:
                acc = acc + lam[idx - 1] * codeword[idx - 1]
        return acc

    messages = []
    h = [0] * l
    for e in range(1, code.nbar + 1):
        if e == host:
            continue
        sigma = rack_sum(e)
        values = family.at(e)
        _, pivots = rref(np.stack([g.vec for g in values], axis=1), q)
        messages.append((e, tuple(field.trace(values[p] * sigma) for p in pivots)))
        for i, g in enumerate(values):
            h[i] = (h[i] + field.trace(g * sigma)) % q
    nu = rack_sum(host)
    x, power, traces = field.monomial(1), field.one, []
    for _ in range(2 * l - 1):
        traces.append(field.trace(power))
        power = power * x
    hankel = np.array(traces, dtype=np.int64)[np.add.outer(np.arange(l), np.arange(l))]
    ZT = np.stack([z.vec for z in family.at(host)]) @ hankel % q
    R, pivots = rref(np.concatenate([ZT, np.eye(l, dtype=np.int64)], axis=1), q)
    assert pivots == tuple(range(l)), "host values are not a basis"
    expanded = field.element(np.array(h, dtype=np.int64) @ R[:, l:].T % q)
    lam_c = -(expanded + nu)
    return tuple(messages), lam_c / lam[node - 1]
