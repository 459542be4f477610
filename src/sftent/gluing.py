"""Bounded verification of block gluing.

A spec glues with gap M when any two admissible rectangular patterns at
Euclidean distance >= M extend jointly to a global configuration.  The
verifier checks every pair of admissible w x w window patterns at every
relative offset within a placement extent, using a joint admissible extension
on the dilated bounding box as the (desk-scale) witness.  A "verified" verdict
is therefore certified only up to the window and extent used.

When some alphabet symbol occurs in no forbidden pattern, padding any pair
with that symbol is always admissible, which proves every pair extends without
enumerating them; the verdict records which method settled it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .counting import (
    admissible_extension_exists,
    count_bruteforce,
    enumerate_admissible,
)
from .lattice import Point, dilate, rectangle
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
    out = []
    for dy in range(-extent, extent + 1):
        for dx in range(-extent, extent + 1):
            if variant == "horizontal" and dy != 0:
                continue
            if variant == "vertical" and dx != 0:
                continue
            if (dy, dx) <= (0, 0):
                continue  # ordered pairs cover the mirrored offset
            p = Point(dx, dy)
            sep = rectangle_separation(p, window)
            if sep >= gap and sep > 0:
                out.append(p)
    return out


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
    diameter; otherwise returns the first counterexample found.
    """
    if variant not in ("full", "horizontal", "vertical"):
        raise ValueError(f"unknown variant {variant!r}")
    if not 1 <= window <= 4:
        raise ValueError("window must be between 1 and 4")
    offsets = _offsets(gap, window, extent, variant)

    def verdict(method: str, pairs_checked: int, counterexample=None) -> GluingVerdict:
        return GluingVerdict(spec.name, gap, window, extent, variant, counterexample is None,
                             counterexample, method, len(offsets), pairs_checked)

    if spec.safe_symbols:
        # padding with a symbol absent from every forbidden pattern extends any
        # pair of admissible windows, at any offset
        return verdict(f"padding-witness(symbol={spec.safe_symbols[0]})", 0)
    base = rectangle((0, 0), window, window)
    admissible = [Pattern(base, syms) for syms in enumerate_admissible(base, spec)]
    margin = max(1, spec.forbidden_diameter)
    firsts = [dict(zip(base, p.symbols)) for p in admissible]
    pairs_checked = 0
    for offset in offsets:
        shifted = base.translate(offset)
        joint = dilate(base.union(shifted), margin)
        sep = rectangle_separation(offset, window)
        shifted_points = list(shifted)
        seconds = [dict(zip(shifted_points, p.symbols)) for p in admissible]
        for first, fixed_first in zip(admissible, firsts):
            for second, fixed_second in zip(admissible, seconds):
                pairs_checked += 1
                if not admissible_extension_exists(joint, spec, fixed_first | fixed_second):
                    cex = GluingCounterexample(first, Pattern(shifted, second.symbols), offset, sep)
                    return verdict("exhaustive-pairs", pairs_checked, cex)
    return verdict("exhaustive-pairs", pairs_checked)


def replay_counterexample(spec: SftSpec, cex: GluingCounterexample) -> int:
    """Joint count of extensions of the counterexample pair (must be zero)."""
    margin = max(1, spec.forbidden_diameter)
    joint = dilate(cex.first.support.union(cex.second.support), margin)
    fixed = {p: s for p, s in zip(cex.first.support, cex.first.symbols)}
    fixed.update({p: s for p, s in zip(cex.second.support, cex.second.symbols)})
    return count_bruteforce(joint, spec, budget=2 ** 60, fixed=fixed).value
