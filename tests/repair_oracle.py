"""Reference single-node repair with field arithmetic: the tests' oracle for
`RepairSession.run`.

`reference_repair` repeats the repair one field product and one trace at a
time.  It reads a node's plan only through `RepairScheme.rows`, the weights
only through `dual_weights`, and multiplies only with `FieldElement`; it
never touches a session, a multiplication matrix or a weight stack, so it
shares no code with the compiled path it checks.  The payload basis of a
helper rack is the first maximal independent subset of its rows in input
order (`rank_over_base` pivots), the same basis the session sends.
"""

from rackrepair.constructions import CodeInstance, RepairScheme
from rackrepair.gf import expand_in_dual_basis, rank_over_base
from rackrepair.rs import dual_weights


def reference_repair(instance: CodeInstance, scheme: RepairScheme, codeword):
    """Return (((rack, payload), ...), recovered) for repairing
    `scheme.node` from `codeword`; the erased symbol is never read.

    Helper rack e sends tr(beta * sigma_e) for each basis element beta of
    its rows, where sigma_e = sum of lam_j c_j over the rack.  The parity
    check gives, for every row i, tr(z_i lam_f c_f) = -(h_i + tr(z_i nu))
    with z_i the host rack's rows, h_i = sum_e tr(g_i(e) sigma_e) and nu the
    host survivors' sum, so lam_f c_f = -(sum_i h_i mu_i + nu) in the dual
    basis mu of the z_i.
    """
    field, code = instance.field, instance.code
    lam = dual_weights(code)
    node = scheme.node
    host, _ = code.rack_of(node)
    rows = scheme.rows

    def rack_sum(e):
        acc = field.zero
        for m in range(1, code.u + 1):
            idx = code.node_index(e, m)
            if idx != node:
                acc = acc + lam[idx - 1] * codeword[idx - 1]
        return acc

    messages = []
    h = [0] * field.l
    for e in range(1, code.nbar + 1):
        if e == host:
            continue
        sigma = rack_sum(e)
        basis = [rows[e - 1][p] for p in rank_over_base(rows[e - 1]).pivots]
        messages.append((e, tuple(field.trace(beta * sigma) for beta in basis)))
        for i, g in enumerate(rows[e - 1]):
            h[i] = (h[i] + field.trace(g * sigma)) % field.q
    nu = rack_sum(host)
    lam_c = -(expand_in_dual_basis(h, field.dual_basis(rows[host - 1])) + nu)
    return tuple(messages), lam_c / lam[node - 1]
