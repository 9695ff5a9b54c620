"""Mixed-radix digit systems: r-ary and multi-base expansions, positional
weights, and the zero-digit index sets the repair constructions select from.
The r-ary expansion is the one-base (m = 1) case of the multi-base one, so a
single window rule, `index_set`, serves every construction.

Positions are 1-based to match the usual digit notation t_1, t_2, ...; the
flat position of block coordinates (w, y) is w*m + y.
"""

from __future__ import annotations

from math import prod


class RadixSystem:
    """Positional system with per-position radices (rho_1, ..., rho_N).

    weight[i] = rho_1 * ... * rho_(i-1), so a value decodes as
    sum_i digit_i * weight_i and encode/decode is a bijection between
    [0, capacity - 1] and the digit box.
    """

    def __init__(self, radices):
        radices = tuple(int(r) for r in radices)
        if not radices or any(r < 2 for r in radices):
            raise ValueError("radices must be integers >= 2")
        self.radices = radices
        weights = [1]
        for r in radices[:-1]:
            weights.append(weights[-1] * r)
        self.weights = tuple(weights)
        self.capacity = prod(radices)

    def encode(self, a: int) -> tuple[int, ...]:
        """Unique digits of a, position 1 first, extracted greedily position
        by position."""
        if not 0 <= a < self.capacity:
            raise ValueError(f"value {a} outside [0, {self.capacity - 1}]")
        digits = []
        for r in self.radices:
            digits.append(a % r)
            a //= r
        return tuple(digits)

    def decode(self, digits: tuple[int, ...]) -> int:
        if len(digits) != len(self.radices):
            raise ValueError("digit count does not match the radix list")
        for t, r in zip(digits, self.radices):
            if not 0 <= t < r:
                raise ValueError(f"digit {t} out of bounds for radix {r}")
        return sum(t * w for t, w in zip(digits, self.weights))


def multi_base_radices(bases: tuple[int, ...], nbar: int) -> tuple[int, ...]:
    """The multi-base expansion over nbar positions: (p_1..p_m) repeated
    floor(nbar/m) times, then (p_1..p_h); (rbar,) gives the rbar-ary one."""
    nprime, h = divmod(nbar, len(bases))
    return bases * nprime + bases[:h]


def window(radices, start: int, width: int) -> tuple[int, ...]:
    """The 0-based positions of `width` consecutive digits, starting at the
    1-based position `start` and wrapping past the last one.

    The basic construction's rack i uses the window (i, 1) of the rbar-ary
    system; the multi-base rack at flat position w*m + y uses (w*m + y, m).
    The radices under the window must multiply to the first `width` radices'
    product (one full period), so that its index set has exactly
    capacity/period entries; other windows are rejected.
    """
    count = len(radices)
    if not 1 <= start <= count or not 1 <= width <= count:
        raise ValueError(f"window (start={start}, width={width}) outside [1, {count}]")
    positions = tuple((start - 1 + k) % count for k in range(width))
    if prod(radices[p] for p in positions) != prod(radices[:width]):
        raise ValueError(
            "digit window does not cover one full radix period; "
            "this remainder layout has no size-l/rbar index set"
        )
    return positions


def index_set(radix: RadixSystem, start: int, width: int) -> tuple[int, ...]:
    """All t in [0, capacity) whose digits under `window(radix.radices,
    start, width)` are all zero."""
    positions = window(radix.radices, start, width)
    return tuple(
        t for t in range(radix.capacity)
        if all(t // radix.weights[p] % radix.radices[p] == 0 for p in positions)
    )
