"""Expanding families of finite lattices and their geometric statistics.

An :class:`ExpandingSystem` maps an index n to a finite lattice.  The module
provides the builtin families (squares, general rectangles, the mirrored
q-adic wedges of the multiplicative system, L-shapes, staircases, squares with
an attached one-dimensional stick), an expansion checker, and
:func:`condition_report`, which tabulates the boundary / residue / run-length
ratios that decide whether a family behaves two-dimensionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import OverlapError
from .lattice import (
    FiniteLattice,
    block_residue_size,
    boundary_size,
    is_tessellation,
    rectangle,
    run_census,
)
from .multiplicative import SeriesValue, _fiber_entropy_series, _fiber_lengths, fibonacci

VANISH_FRACTION = 0.05   # tail max must drop below this fraction of the head max
DECAY_RATIO = 0.7        # or the per-third envelope maxima must shrink this fast
NONVANISH_FLOOR = 0.01   # tail min must stay above this to call non-vanishing


@dataclass(frozen=True)
class ExpandingSystem:
    """Indexed family n -> finite lattice, n >= n0."""

    name: str
    generator: Callable[[int], FiniteLattice]
    n0: int = 1

    def lattice(self, n: int) -> FiniteLattice:
        if n < self.n0:
            raise ValueError(f"index {n} below first index {self.n0}")
        return self.generator(n)


@dataclass(frozen=True)
class ExpansionReport:
    nested: bool
    strictly_growing: bool
    first_violation: int | None = None


def check_expansion(system: ExpandingSystem, span: int = 8) -> ExpansionReport:
    """Desk-scale check that the family is nested and strictly growing."""
    nested = True
    growing = True
    violation = None
    prev = system.lattice(system.n0)
    for n in range(system.n0 + 1, system.n0 + span + 1):
        cur = system.lattice(n)
        if not prev.issubset(cur):
            nested = False
            violation = violation if violation is not None else n
        if len(cur) <= len(prev):
            growing = False
            violation = violation if violation is not None else n
        prev = cur
    return ExpansionReport(nested, growing, violation)


# ---------------------------------------------------------------------------
# rectangle families
# ---------------------------------------------------------------------------


def rect_system(
    width_fn: Callable[[int], int],
    height_fn: Callable[[int], int],
    name: str = "rect",
) -> ExpandingSystem:
    """Family n -> width_fn(n) x height_fn(n) rectangle anchored at the origin."""

    def gen(n: int) -> FiniteLattice:
        w, h = int(width_fn(n)), int(height_fn(n))
        if w < 1 or h < 1:
            raise ValueError(f"rectangle sides must stay positive, got {w}x{h} at n={n}")
        return rectangle((0, 0), w, h)

    return ExpandingSystem(name, gen)


def squares() -> ExpandingSystem:
    return rect_system(lambda n: n, lambda n: n, name="squares")


# ---------------------------------------------------------------------------
# q-adic wedges of the multiplicative system
# ---------------------------------------------------------------------------


def omega_q_plus(q: int, n: int) -> FiniteLattice:
    """{1..q^n} arranged by q-adic valuation (column) and odd-part rank (row).

    k = i * q^j with q not dividing i is placed at x = j, y = rank of i among
    all integers coprime-to-q, so the lattice has exactly q^n cells and its
    rows are the fibers.
    """
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
    k = np.arange(1, q ** n + 1, dtype=np.int64)
    j = np.zeros_like(k)
    t = k.copy()
    divisible = t % q == 0
    while divisible.any():
        t[divisible] //= q
        j[divisible] += 1
        divisible = t % q == 0
    rank = (t - 1) - (t - 1) // q          # number of non-multiples of q below i
    return FiniteLattice(np.stack([j, rank], axis=1))


def omega_q(q: int, n: int) -> FiniteLattice:
    """Four mirror images of the wedge, reflected across x = -1/2 and y = -1/2.

    Every wedge row of length L becomes two rows of length 2L, so the result
    has 4 * q^n cells.
    """
    base = omega_q_plus(q, n).coords
    quads = [base.copy() for _ in range(4)]
    quads[1][:, 0] = -1 - quads[1][:, 0]
    quads[2][:, 1] = -1 - quads[2][:, 1]
    quads[3][:, 0] = -1 - quads[3][:, 0]
    quads[3][:, 1] = -1 - quads[3][:, 1]
    return FiniteLattice(np.concatenate(quads))


def omega_q_system(q: int) -> ExpandingSystem:
    return ExpandingSystem(f"omega_q:{q}", lambda n: omega_q(q, n))


def row_census(q: int, n: int) -> dict[int, int]:
    """Row-length multiplicities of the wedge, computed by direct scan.

    The closed form is one row of length n+1, q-2 rows of length n, and
    (q-1)^2 * q^(n-1-k) rows of each length 1 <= k <= n-1; the weighted total
    is exactly q^n.
    """
    ys = omega_q_plus(q, n).coords[:, 1]
    _, counts = np.unique(ys, return_counts=True)
    lengths, mult = np.unique(counts, return_counts=True)
    return {int(length): int(m) for length, m in zip(lengths, mult)}


def omega_q_golden_mean_count(q: int, n: int) -> int:
    """Closed-form golden-mean count on the mirrored wedge (Eq. 1.10).

    a_{2(n+1)}^2 * a_{2n}^{2(q-2)} * prod_{k=1}^{n-1} a_{2k}^{2 (q-1)^2 q^(n-1-k)}:
    each fiber of length L in {1..q^n} gives two rows of length 2L.  Exact;
    must agree with the counting engine on the actual lattice.
    """
    if q < 2:
        raise ValueError("need q >= 2 and n >= 1")
    return math.prod(fibonacci(2 * length) ** (2 * mult)
                     for length, mult in _fiber_lengths(q ** n, q).items())


def omega_q_entropy_series(q: int, terms: int) -> SeriesValue:
    """(1/2)(q-1)^2 * sum_k q^-(k+1) log a_{2k}, plus a rigorous tail bound."""
    return _fiber_entropy_series(q, terms, 0.5, 2)


# ---------------------------------------------------------------------------
# interpolation family: square plus a one-dimensional stick
# ---------------------------------------------------------------------------


def stick_augmented(n: int, v, b: int) -> FiniteLattice:
    """The n x n square with a stick {s*v + (n, 0) : 0 <= s <= b} attached."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if b < 0:
        raise ValueError("b must be >= 0")
    vx, vy = int(v[0]), int(v[1])
    if math.gcd(abs(vx), abs(vy)) != 1:
        raise ValueError("stick direction must be a primitive vector")
    square = rectangle((0, 0), n, n)
    s = np.arange(b + 1, dtype=np.int64)
    stick_coords = np.stack([s * vx + n, s * vy], axis=1)
    stick = FiniteLattice(stick_coords)
    if not square.isdisjoint(stick):
        raise OverlapError("stick intersects the square")
    return square.union(stick)


def stick_system(v, a_target: float) -> ExpandingSystem:
    """Family with stick length chosen so n^2 / |lattice| approaches a_target."""
    if not 0 < a_target <= 1:
        raise ValueError("a_target must lie in (0, 1]")

    def b_of(n: int) -> int:
        return max(0, round(n * n * (1 - a_target) / a_target) - 1)

    vx, vy = int(v[0]), int(v[1])
    return ExpandingSystem(f"stick:{vx},{vy}:a={a_target:g}",
                           lambda n: stick_augmented(n, (vx, vy), b_of(n)))


# ---------------------------------------------------------------------------
# L-shapes and staircases
# ---------------------------------------------------------------------------


def lshape(n: int) -> FiniteLattice:
    """Thick L: bottom n^2 x n slab united with the left n x n^2 column.

    Size 2n^3 - n^2 inside the n^2 x n^2 bounding square, whose complement is
    the (n^2-n) x (n^2-n) top-right block.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return rectangle((0, 0), n * n, n).union(rectangle((0, 0), n, n * n))


def lshape_system() -> ExpandingSystem:
    return ExpandingSystem("lshape", lshape)


def staircase(n: int) -> FiniteLattice:
    """Two stacked rectangles: n^2 x n at the bottom, n x n^2 on top of it."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return rectangle((0, 0), n * n, n).union(rectangle((0, n), n, n * n))


def staircase_system() -> ExpandingSystem:
    return ExpandingSystem("staircase", staircase, n0=2)


# ---------------------------------------------------------------------------
# condition report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionRow:
    n: int
    size: int
    boundary_size: int
    boundary_ratio: float
    complement_ratio: float
    run_ratio_h: tuple[float, ...]     # index m-1 holds the length-m cell ratio
    run_ratio_v: tuple[float, ...]
    block_ratio: tuple[float, ...]     # aligned with the requested block sizes


@dataclass(frozen=True)
class ConditionReport:
    system: str
    m_max: int
    block_sizes: tuple[tuple[int, int], ...]
    tessellation: str
    rows: tuple[ConditionRow, ...]
    verdicts: dict[str, str]


def _ratio_columns(rows, m_max: int, block_sizes) -> dict[str, list[float]]:
    """Every ratio sequence of a report by verdict key, in verdict order."""
    cols = {"boundary_ratio": [r.boundary_ratio for r in rows],
            "complement_ratio": [r.complement_ratio for r in rows]}
    for m in range(1, m_max + 1):
        cols[f"run_h[m={m}]"] = [r.run_ratio_h[m - 1] for r in rows]
        cols[f"run_v[m={m}]"] = [r.run_ratio_v[m - 1] for r in rows]
    for j, (k, l) in enumerate(block_sizes):
        cols[f"block[{k}x{l}]"] = [r.block_ratio[j] for r in rows]
    return cols


def classify_trend(values: Sequence[float]) -> str:
    """Classify a ratio sequence as vanishing / non_vanishing / bounded.

    Vanishing: either the max over the last third has dropped below
    ``VANISH_FRACTION`` times the max over the first third (an all-zero tail
    qualifies), or the per-third envelope maxima decay geometrically by at
    least ``DECAY_RATIO`` per third -- which catches C/n-type envelopes whose
    tail is small but not yet negligible at the computed horizon.
    Non-vanishing: the min over the last third stays above ``NONVANISH_FLOOR``.
    """
    if not values:
        raise ValueError("empty sequence")
    third = max(1, math.ceil(len(values) / 3))
    e_head = max(values[:third])
    e_mid = max(values[third:-third]) if len(values) > 2 * third else e_head
    e_tail = max(values[-third:])
    if e_tail <= VANISH_FRACTION * e_head:
        return "vanishing"
    if e_tail <= DECAY_RATIO * e_mid and e_mid <= DECAY_RATIO * e_head:
        return "vanishing"
    if min(values[-third:]) > NONVANISH_FLOOR:
        return "non_vanishing"
    return "bounded"


def condition_report(
    system: ExpandingSystem,
    n_range: Iterable[int],
    m_max: int = 3,
    tessellation="bounding_rectangle",
    block_sizes: Sequence[tuple[int, int]] = (),
) -> ConditionReport:
    """Tabulate the two-dimensionality ratios of a family and classify trends.

    `tessellation` selects the enclosing tessellation used for the complement
    ratio: the bounding rectangle (default), the lattice itself ("self",
    giving ratio 0; a desk-scale tiling check rejects shapes certified not to
    tile), or an explicit map n -> enclosing lattice.
    """
    explicit = callable(tessellation)
    if not explicit and tessellation not in ("bounding_rectangle", "self"):
        raise ValueError(f"unknown tessellation choice {tessellation!r}")
    bsizes = tuple((int(k), int(l)) for k, l in block_sizes)
    rows = []
    for n in n_range:
        lat = system.lattice(n)
        size = len(lat)
        bsize = boundary_size(lat)
        if explicit:
            enclosing = tessellation(n)
            if not lat.issubset(enclosing):
                raise ValueError(f"tessellation at n={n} does not contain the lattice")
            comp = len(enclosing) - size
        elif tessellation == "self":
            if size <= 2000 and is_tessellation(lat).status == "no":
                raise ValueError(f"lattice at n={n} certified not to tile the plane")
            comp = 0
        else:
            _, w, h = lat.bbox
            comp = w * h - size
        census_h = run_census(lat, "horizontal")
        census_v = run_census(lat, "vertical")
        rows.append(
            ConditionRow(
                n=n,
                size=size,
                boundary_size=bsize,
                boundary_ratio=bsize / size,
                complement_ratio=comp / size,
                run_ratio_h=tuple(census_h.get(m, 0) / size for m in range(1, m_max + 1)),
                run_ratio_v=tuple(census_v.get(m, 0) / size for m in range(1, m_max + 1)),
                block_ratio=tuple(block_residue_size(lat, k, l) / size for k, l in bsizes),
            )
        )
    rows = tuple(rows)
    return ConditionReport(
        system=system.name,
        m_max=m_max,
        block_sizes=bsizes,
        tessellation=tessellation,
        rows=rows,
        verdicts={k: classify_trend(v) for k, v in _ratio_columns(rows, m_max, bsizes).items()},
    )
