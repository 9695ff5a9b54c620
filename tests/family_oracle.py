"""Direct evaluation of a repair family: the tests' independent oracle.

`FamilyEvaluator` evaluates every g_(t,s)(x) = zeta^(ut) x^(us) of a scheme
at the code's points with field products.  It reads only the scheme's
descriptors and index set and the code's points, never the power table of
zeta^u that `verify_rank_condition` reads the family's values from, so it
shares no code with the values it checks.
"""

from rackrepair.constructions import CodeInstance, RepairScheme
from rackrepair.gf import FieldElement


class FamilyEvaluator:
    """Evaluates every g_(t,s) of a scheme at the code's points, reusing the
    zeta^(ut) table across racks."""

    def __init__(self, instance: CodeInstance, scheme: RepairScheme):
        self.instance = instance
        self.scheme = scheme
        self.u = instance.params.u
        zeta = instance.field.zeta
        self._zeta_ut = {t: zeta ** (self.u * t) for t in scheme.index_set}

    def at(self, rack: int, j: int = 1) -> tuple[FieldElement, ...]:
        code = self.instance.code
        point = code.eval_points[code.node_index(rack, j) - 1]
        ppow = {s: point ** (self.u * s) for s in range(self.instance.params.rbar_eff)}
        return tuple(self._zeta_ut[t] * ppow[s] for t, s in self.scheme.descriptors)
