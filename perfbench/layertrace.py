"""In-memory spans and counters around rackrepair's public functions.

The tracer wraps functions and methods from outside the package: for a
module-level function it rebinds every name under which a rackrepair module
holds that function (a `from .gf import rank_over_base` copy included), for
a method it rebinds the class attribute.  `uninstall` restores the originals.
Nothing under `src/` knows about it.

A span is (name, start, end, parent), with parent the index of the
enclosing span or -1.  The benchmark runs in one thread, so spans nest
strictly and a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute): module-level functions timed as spans.
FUNCTION_SPANS = (
    ("numbertheory.factorize", "rackrepair.numbertheory", "factorize"),
    ("gf.find_irreducible", "rackrepair.gf", "find_irreducible"),
    ("gf.factor_field_order", "rackrepair.gf", "factor_field_order"),
    ("gf.find_primitive_element", "rackrepair.gf", "find_primitive_element"),
    ("gf.rank_over_base", "rackrepair.gf", "rank_over_base"),
    ("rs.encode", "rackrepair.rs", "encode"),
    ("rs.erasure_decode", "rackrepair.rs", "erasure_decode"),
    ("rs.dual_weights", "rackrepair.rs", "dual_weights"),
    ("constructions.build", "rackrepair.constructions", "build"),
    ("constructions.repair_family", "rackrepair.constructions", "repair_family"),
    ("constructions.verify_rank_condition", "rackrepair.constructions", "verify_rank_condition"),
    ("repair.audit", "rackrepair.repair", "audit"),
    ("cli.rows_for_instance", "rackrepair.cli", "rows_for_instance"),
    ("cli.random_codeword", "rackrepair.cli", "random_codeword"),
    ("cli.emit_report", "rackrepair.cli", "emit_report"),
)
# (span name, module, class, method): methods timed as spans.
METHOD_SPANS = (
    ("gf.dual_basis", "rackrepair.gf", "ExtensionField", "dual_basis"),
    ("repair.session_init", "rackrepair.repair", "RepairSession", "__init__"),
    ("repair.run", "rackrepair.repair", "RepairSession", "run"),
)
# (counter name, module, class, methods): methods only counted, because they
# run far too often for a span each.
METHOD_COUNTS = (
    ("gf.mul", "rackrepair.gf", "FieldElement", ("__mul__", "__rmul__")),
    ("gf.inverse", "rackrepair.gf", "FieldElement", ("inverse",)),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _timed(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(out)
            return out
        traced.__wrapped__ = fn
        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every listed function and method; `uninstall` undoes it."""
        hooks = {
            "constructions.verify_rank_condition": self._on_rank_check,
            "repair.run": self._on_repair,
        }
        for name, modname, attr in FUNCTION_SPANS:
            wrap_function(modname, attr, lambda fn, name=name: self._timed(name, fn, hooks.get(name)),
                          self._restore)
        for name, modname, cls, attr in METHOD_SPANS:
            wrap_method(modname, cls, attr, lambda fn, name=name: self._timed(name, fn, hooks.get(name)),
                        self._restore)
        for name, modname, cls, attrs in METHOD_COUNTS:
            for attr in attrs:
                wrap_method(modname, cls, attr, lambda fn, name=name: self._counted(name, fn),
                            self._restore)

    def uninstall(self):
        unwrap(self._restore)

    def _on_rank_check(self, check):
        self.counts["constructions.rank_checks"] += 1
        self.counts["constructions.rank_ok"] += bool(check.ok)

    def _on_repair(self, result):
        transcript, _ = result
        self.counts["repair.payload_symbols"] += sum(len(m.payload) for m in transcript.messages)


# -- rebinding ----------------------------------------------------------------------

def wrap_function(modname: str, attr: str, wrap, restore: list):
    """Replace module-level function `attr` of `modname` by wrap(original)
    under every name a rackrepair module holds it; record what to undo."""
    original = getattr(sys.modules[modname], attr)
    wrapped = wrap(original)
    for name, mod in list(sys.modules.items()):
        if (name == "rackrepair" or name.startswith("rackrepair.")) and mod.__dict__.get(attr) is original:
            restore.append((mod, attr, original))
            setattr(mod, attr, wrapped)


def wrap_method(modname: str, cls: str, attr: str, wrap, restore: list):
    owner = getattr(sys.modules[modname], cls)
    original = owner.__dict__[attr]
    restore.append((owner, attr, original))
    setattr(owner, attr, wrap(original))


def unwrap(restore: list):
    while restore:
        owner, attr, original = restore.pop()
        setattr(owner, attr, original)


# -- analysis -----------------------------------------------------------------------

LIBRARY_SPANS = frozenset(s[0] for s in FUNCTION_SPANS) | frozenset(s[0] for s in METHOD_SPANS)


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _), c in zip(spans, child):
        out[name] += end - start - c
    return dict(out)


def covered_time(spans) -> float:
    """Wall time inside library spans: the sum over library spans whose
    parent is not itself a library span (they never overlap)."""
    return sum(
        end - start for name, start, end, parent in spans
        if name in LIBRARY_SPANS and (parent < 0 or spans[parent][0] not in LIBRARY_SPANS)
    )


def durations(spans, name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]


def call_counts(spans) -> Counter:
    return Counter(s[0] for s in spans)



