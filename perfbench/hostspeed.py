"""How fast the host runs right now, sampled between the benchmark's operations.

On a shared virtual machine the same operation runs in a fast state or in a
slow one up to 1.8 times slower, in spells of a few to tens of seconds, and
process CPU time follows wall time, so the slowdown is not stolen time.  It
hits interpreter-bound code hardest: the package's stripe operations (Python
loops over small numpy arrays) slow down by up to 1.8x, large-array numpy work
much less.  A fixed reference task of the first kind slows down with them.

`HostSpeed.sample` runs that task and keeps (end time, duration).  The time an
operation spends in [t0, t1], less the samples taken inside it, is reported
as the sum over the stretches between those samples of

    stretch length * REFERENCE_S / (median duration of the samples near the stretch)

that is, scaled to a host on which the reference task takes REFERENCE_S
seconds.  The scale does not depend on the package, so a change that makes an
operation slower or faster moves its scaled time by the same share as its
raw time.  On six 40-second runs of `mixed-q13` the middle half of the median
repair latencies spread by 0.55 of their median raw and by 0.05 scaled.
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array

import numpy as np

from layertrace import unwrap, wrap_function, wrap_method

# What the reference task takes in the fast state of the 2-vCPU virtual
# machine the benchmark was built on.
REFERENCE_S = 0.15e-3
_SMALL = np.arange(64, dtype=np.int64) % 3


def reference_task() -> int:
    """A Python loop over small numpy arrays mod 3, on fixed data."""
    x, acc = _SMALL, 0
    for i in range(20):
        x = np.convolve(x, _SMALL)[:64] % 3
        x[0] += 1
        for j in range(20):
            acc = (acc * 31 + i + j) % 1000003
    return acc + int(x[1])


# Points inside the long operations (cold set-up, cold sweep) at which a
# sample is taken too, so that a change of host speed during them is seen:
# field construction steps and the per-node planning steps.
PROBES = (
    ("rackrepair.gf", None, "find_irreducible"),
    ("rackrepair.gf", None, "find_primitive_element"),
    ("rackrepair.constructions", None, "verify_rank_condition"),
    ("rackrepair.repair", "RepairSession", "__init__"),
)
PROBE_REPEAT = 3
WINDOW_S = 0.05  # samples this close to a stretch of time give its speed
GAP_S = 0.01  # an unforced sample is skipped this soon after the last one


class HostSpeed:
    def __init__(self):
        self.ends = array("d")
        self.durations = array("d")
        self._restore: list = []

    def sample(self, repeat: int = 1, force: bool = False):
        if not force and self.ends and time.perf_counter() - self.ends[-1] < GAP_S:
            return
        for _ in range(repeat):
            t0 = time.perf_counter()
            reference_task()
            t1 = time.perf_counter()
            self.ends.append(t1)
            self.durations.append(t1 - t0)

    def _probed(self, fn):
        def probed(*args, **kwargs):
            self.sample(PROBE_REPEAT)
            return fn(*args, **kwargs)
        probed.__wrapped__ = fn
        return probed

    def install(self):
        """Sample at every probe point as well; `uninstall` undoes it."""
        for modname, cls, attr in PROBES:
            if cls is None:
                wrap_function(modname, attr, self._probed, self._restore)
            else:
                wrap_method(modname, cls, attr, self._probed, self._restore)

    def uninstall(self):
        unwrap(self._restore)

    def scaled(self, t0: float, t1: float) -> float:
        """The operation's own time in [t0, t1], samples taken inside it left
        out, each stretch between samples scaled to the reference host by the
        median reference time around that stretch."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        total, a = 0.0, t0
        for i in range(lo, hi):
            total += self._stretch(a, self.ends[i] - self.durations[i])
            a = self.ends[i]
        return total + self._stretch(a, t1)

    def _stretch(self, a: float, b: float) -> float:
        lo = bisect.bisect_left(self.ends, a - WINDOW_S)
        hi = bisect.bisect_right(self.ends, b + WINDOW_S)
        if lo == hi:  # none that close: the nearest one on each side
            lo, hi = max(lo - 1, 0), hi + 1
        near = self.durations[lo:hi]
        if not near:
            raise RuntimeError("no host speed sample was taken")
        return (b - a) * REFERENCE_S / statistics.median(near)
