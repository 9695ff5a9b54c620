"""Direct evaluation of a repair family: the tests' independent oracle.

`FamilyEvaluator` evaluates every g_(t,s)(x) = zeta^(ut) x^(us) of a scheme
at the plan's points with field products.  It reads only the scheme's
descriptors and the plan's points, never `RepairScheme.rows` or a power
table of zeta^u, so it shares no code with the rows it checks.
"""

from rackrepair.constructions import CodeInstance, RepairScheme
from rackrepair.gf import FieldElement


class FamilyEvaluator:
    """Evaluates every g_(t,s) of a scheme at the plan's points, reusing the
    zeta^(ut) table across racks."""

    def __init__(self, instance: CodeInstance, scheme: RepairScheme):
        self.instance = instance
        self.scheme = scheme
        zeta = instance.field.zeta
        self._zeta_ut = {t: zeta ** (scheme.u * t) for t in scheme.index_set}

    def at(self, rack: int, j: int = 1) -> tuple[FieldElement, ...]:
        point = self.instance.plan.points[rack - 1][j - 1]
        ppow = {s: point ** (self.scheme.u * s) for s in range(self.scheme.rbar_eff)}
        return tuple(self._zeta_ut[t] * ppow[s] for t, s in self.scheme.descriptors)
