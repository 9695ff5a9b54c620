"""Rack-aware Reed-Solomon codes with trace-based single-node repair.

The package builds the monomial repair constructions (basic, multi-base,
prime-rbar, and the homogeneous u=1 degeneration), executes trace repair
with per-rack bandwidth accounting, and checks every rank condition and
bandwidth bound exactly.
"""

from .constructions import (
    BoundSet,
    CodeInstance,
    RankCheck,
    RepairScheme,
    SchemeParams,
    bounds,
    build,
    c1_params,
    c2_params,
    cor7_params,
    homogeneous_params,
    repair_family,
    verify_rank_condition,
)
from .gf import (
    GF,
    ExtensionField,
    FieldElement,
    factor_field_order,
    find_irreducible,
    find_primitive_element,
    rank_over_base,
)
from .radix import RadixSystem, index_set
from .repair import (
    AuditResult,
    RackMessage,
    RepairError,
    RepairSession,
    RepairTranscript,
    audit,
)
from .rs import CodeSpec, dual_weights, encode, erasure_decode

__all__ = [name for name in dir() if not name.startswith("_")]
