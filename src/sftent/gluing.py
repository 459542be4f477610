"""Bounded verification of block gluing.

A spec glues with gap M when any two admissible rectangular patterns at
Euclidean distance >= M extend jointly to a global configuration.  The
verifier checks every pair of admissible w x w window patterns at every
relative offset within a placement extent, using a joint admissible extension
on the dilated bounding box as the (desk-scale) witness.  A "verified" verdict
is therefore certified only up to the window and extent used.

When some alphabet symbol occurs in no forbidden pattern, padding any pair
with that symbol is always admissible, which proves every pair extends without
enumerating them; the verdict records which method settled it.  Otherwise
each offset streams its extension questions on the dilated joint box to
``counting._extensions``, which sets, sweeps and searches them: one array
per first window of its pairs with every second window, in (first, second)
order.  The first pair with no extension is the counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import _admissible_rows, _extensions, count_bruteforce
from .lattice import Point, _integer, _real, dilate, rectangle
from .sft import Pattern, SftSpec


@dataclass(frozen=True)
class GluingCounterexample:
    first: Pattern            # window at the origin
    second: Pattern           # window at `offset`
    offset: Point
    separation: float


@dataclass(frozen=True)
class GluingVerdict:
    spec_name: str
    gap: float
    window: int
    extent: int
    variant: str
    verified: bool
    counterexample: GluingCounterexample | None
    method: str
    offsets_checked: int
    pairs_checked: int


def _interval_gap(offset: int, width: int) -> int:
    return max(0, abs(offset) - (width - 1))


def rectangle_separation(offset: Point, window: int) -> float:
    """Min Euclidean distance between the window at 0 and the window at offset."""
    return math.hypot(_interval_gap(offset.x, window), _interval_gap(offset.y, window))


def _offsets(gap: float, window: int, extent: int, variant: str) -> list[Point]:
    """Offsets with separation >= gap, one per unordered {delta, -delta} pair."""
    span = range(-extent, extent + 1)
    # (dy, dx) > (0, 0): ordered pairs cover the mirrored offset
    points = (Point(dx, dy) for dy in ((0,) if variant == "horizontal" else span)
              for dx in ((0,) if variant == "vertical" else span) if (dy, dx) > (0, 0))
    return [p for p in points if 0 < rectangle_separation(p, window) >= gap]


def _pairs(windows):
    """One array of (first, second) window pairs per first window, in order."""
    rows = np.concatenate([windows, windows], axis=1)
    for first in windows:
        rows = rows.copy()
        rows[:, :windows.shape[1]] = first
        yield rows


def verify_block_gluing(
    spec: SftSpec,
    gap: float = 1,
    window: int = 3,
    extent: int = 6,
    variant: str = "full",
) -> GluingVerdict:
    """Search for a pair of admissible windows with no joint extension.

    Returns verified(gap) if every pair of admissible window patterns at every
    offset with separation >= gap (within the extent) has a locally admissible
    joint extension on the bounding box dilated by the spec's forbidden-shape
    diameter; otherwise returns the first counterexample found.  Without a
    safe symbol, a gap and extent that leave no offset to check raise
    ValueError rather than verify vacuously.
    """
    if variant not in ("full", "horizontal", "vertical"):
        raise ValueError(f"unknown variant {variant!r}")
    gap, window, extent = _real(gap), _integer(window), _integer(extent)
    if not 1 <= window <= 4:
        raise ValueError("window must be between 1 and 4")
    if math.isnan(gap) or extent < 1:
        raise ValueError(f"need gap not NaN and extent >= 1, got gap {gap}, extent {extent}")
    offsets = _offsets(gap, window, extent, variant)

    def verdict(method: str, pairs_checked: int, counterexample=None) -> GluingVerdict:
        return GluingVerdict(spec.name, gap, window, extent, variant, counterexample is None,
                             counterexample, method, len(offsets), pairs_checked)

    if spec.safe_symbols:
        # padding with a symbol absent from every forbidden pattern extends any
        # pair of admissible windows, at any offset
        return verdict(f"padding-witness(symbol={spec.safe_symbols[0]})", 0)
    if not offsets:
        raise ValueError(f"no {variant} offset within extent {extent} reaches gap {gap}")
    base = rectangle((0, 0), window, window)
    windows = np.concatenate([np.zeros((0, len(base)), dtype=np.uint8),
                              *_admissible_rows(base, spec)])
    m = len(windows)
    margin = max(1, spec.forbidden_diameter)
    for i, offset in enumerate(offsets):
        shifted = base.translate(offset)
        joint = dilate(base.union(shifted), margin)
        checked = 0        # this offset's pairs, in (first, second) order
        for answers in _extensions(joint, spec, [*base, *shifted], _pairs(windows)):
            if not answers.all():     # the first pair with no extension
                checked += int(answers.argmin())
                first, second = divmod(checked, m)
                cex = GluingCounterexample(Pattern(base, windows[first].tolist()),
                                           Pattern(shifted, windows[second].tolist()),
                                           offset, rectangle_separation(offset, window))
                return verdict("exhaustive-pairs", i * m * m + checked + 1, cex)
            checked += len(answers)
    return verdict("exhaustive-pairs", len(offsets) * m * m)


def replay_counterexample(spec: SftSpec, cex: GluingCounterexample) -> int:
    """Joint count of extensions of the counterexample pair (must be zero)."""
    margin = max(1, spec.forbidden_diameter)
    joint = dilate(cex.first.support.union(cex.second.support), margin)
    fixed = {p: s for p, s in zip(cex.first.support, cex.first.symbols)}
    fixed.update({p: s for p, s in zip(cex.second.support, cex.second.symbols)})
    return count_bruteforce(joint, spec, budget=2 ** 60, fixed=fixed).value
