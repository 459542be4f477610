"""Expanding families of finite lattices and their geometric statistics.

An :class:`ExpandingSystem` maps an index n to a finite lattice.  The module
provides the builtin families (squares, general rectangles, the mirrored
q-adic wedges of the multiplicative system, L-shapes, staircases, squares with
an attached one-dimensional stick), an expansion checker, and
:func:`condition_report`, which tabulates the boundary / residue / run-length
ratios that decide whether a family behaves two-dimensionally.

Every builtin family is built from its runs, so it costs time in the number
of rows, not of cells.  Rectangles, wedges, L-shapes and staircases come
with their column runs too, so their transposes cost nothing more; the one
set operation is the union that joins a stick to its square.

The report stacks many indices' lattices into bands of one run array and
takes each statistic with one pass per stack (at most ``_CHUNK`` rows of runs
plus transposed runs), rather than several small calls per index; only run
lengths up to ``m_max`` are tallied.  The interior is the placements of the
2x2 window (:func:`sftent.lattice._placement_runs`).  The per-lattice
functions of :mod:`sftent.lattice` (``boundary_size``, ``block_residue_size``,
``run_census``) give the same numbers one lattice at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import OverlapError
from .lattice import (FiniteLattice, _WINDOW, _band, _block_sides, _check_coords, _full_blocks,
                      _integer, _pair, _placement_runs, _require_primitive, _real, _run_lengths,
                      is_tessellation, rectangle)
from .counting import _census
from .multiplicative import _GOLDEN_MEAN, SeriesValue, _fiber_entropy_series, _fiber_lengths

VANISH_FRACTION = 0.05   # tail max must drop below this fraction of the head max
DECAY_RATIO = 0.7        # or the per-third envelope maxima must shrink this fast
NONVANISH_FLOOR = 0.01   # tail min must stay above this to call non-vanishing
_CHUNK = 4096            # row runs plus transposed runs per stack of a condition report


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
        w, h = _integer(width_fn(n)), _integer(height_fn(n))
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
    rows are the fibers.  The head of rank r is i = r + r // (q - 1) + 1, and
    row r is the run [0, L_i), where L_i counts the t <= n with i <= q^t.
    Column j is the run [0, c_j) over the c_j heads i <= q^(n-j).
    """
    q, n = _integer(q), _integer(n)
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
    if n >= 63 or q ** n >= 2 ** 63:      # q >= 2, so n >= 63 gives q**n >= 2**63
        raise ValueError(f"the wedge of q = {q}, n = {n} has q**n cells, past the int64 range")
    rank = np.arange(q ** n - q ** (n - 1), dtype=np.int64)
    powers = np.array([q ** t for t in range(n + 1)], dtype=np.int64)
    fibers = n + 1 - np.searchsorted(powers, rank + rank // (q - 1) + 1)
    heights = np.array([q ** (n - j) - q ** (n - j - 1) for j in range(n)] + [1], dtype=np.int64)
    return FiniteLattice._from_runs(
        np.column_stack([rank, np.zeros_like(rank), fibers]),
        np.column_stack([np.arange(n + 1), np.zeros_like(heights), heights]),
    )


def omega_q(q: int, n: int) -> FiniteLattice:
    """Four mirror images of the wedge, reflected across x = -1/2 and y = -1/2.

    Every wedge row of length L becomes two rows of length 2L, so the result
    has 4 * q^n cells: wedge row r, the run [0, L), becomes the run [-L, L)
    at rows r and -1 - r, and likewise for the columns.
    """
    plus = omega_q_plus(q, n)

    def mirrored(runs):
        ends = np.concatenate([runs[::-1, 2], runs[:, 2]])
        return np.column_stack([np.arange(-len(runs), len(runs)), -ends, ends])

    return FiniteLattice._from_runs(mirrored(plus._runs), mirrored(plus._truns))


def omega_q_system(q: int) -> ExpandingSystem:
    return ExpandingSystem(f"omega_q:{q}", lambda n: omega_q(q, n))


def row_census(q: int, n: int) -> dict[int, int]:
    """Row-length multiplicities of the wedge, read from its row runs.

    The closed form is one row of length n+1, q-2 rows of length n, and
    (q-1)^2 * q^(n-1-k) rows of each length 1 <= k <= n-1; the weighted total
    is exactly q^n.
    """
    return _run_lengths(omega_q_plus(q, n), "horizontal")


def omega_q_golden_mean_count(q: int, n: int) -> int:
    """Closed-form golden-mean count on the mirrored wedge (Eq. 1.10).

    a_{2(n+1)}^2 * a_{2n}^{2(q-2)} * prod_{k=1}^{n-1} a_{2k}^{2 (q-1)^2 q^(n-1-k)}:
    each fiber of length L in {1..q^n} gives two rows of length 2L.  Exact;
    must agree with the counting engine on the actual lattice.
    """
    q, n = _integer(q), _integer(n)
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
    rows = {2 * length: 2 * mult for length, mult in _fiber_lengths(q ** n, q).items()}
    return _census(_GOLDEN_MEAN, rows, log_domain=False)


def omega_q_entropy_series(q: int, terms: int) -> SeriesValue:
    """(1/2)(q-1)^2 * sum_k q^-(k+1) log a_{2k}, plus a rigorous tail bound."""
    return _fiber_entropy_series(q, terms, 0.5, 2)


# ---------------------------------------------------------------------------
# interpolation family: square plus a one-dimensional stick
# ---------------------------------------------------------------------------


def stick_augmented(n: int, v, b: int) -> FiniteLattice:
    """The n x n square with a stick {s*v + (n, 0) : 0 <= s <= b} attached.

    The stick is built as runs: one run on row 0 when v is horizontal, else
    one cell per row.  Its b + 1 cells meet the square exactly when the union
    is smaller than n^2 + b + 1.
    """
    n, b = _integer(n), _integer(b)
    if n < 1:
        raise ValueError("n must be >= 1")
    if b < 0:
        raise ValueError("b must be >= 0")
    vx, vy = _require_primitive(v)
    x_end, y_end = n + b * vx, b * vy
    _check_coords(min(0, x_end, y_end), max(n - 1, x_end, y_end))
    if vy == 0:
        x0 = min(n, x_end)
        runs = np.array([[0, x0, x0 + b + 1]], dtype=np.int64)
    else:
        # a size past the address space raises ValueError here, where
        # np.arange would come out empty
        runs = np.empty((b + 1, 3), dtype=np.int64)
        s = np.arange(b + 1, dtype=np.int64)[::1 if vy > 0 else -1]
        # the cells are in range, so the arithmetic mod 2**64 in int64 is exact
        dx, dy, x0 = ((d + 2 ** 63) % 2 ** 64 - 2 ** 63 for d in (vx, vy, n))
        runs[:, 0] = s * dy
        runs[:, 1] = s * dx + x0
        runs[:, 2] = runs[:, 1] + 1
    lat = rectangle((0, 0), n, n).union(FiniteLattice._from_runs(runs))
    if len(lat) != n * n + b + 1:
        raise OverlapError("stick intersects the square")
    return lat


def stick_system(v, a_target: float) -> ExpandingSystem:
    """Family with stick length chosen so n^2 / |lattice| approaches a_target."""
    vx, vy = _require_primitive(v)
    a_target = _real(a_target)
    if not 0 < a_target <= 1:
        raise ValueError("a_target must lie in (0, 1]")

    def b_of(n: int) -> int:
        try:
            return max(0, round(n * n * (1 - a_target) / a_target) - 1)
        except OverflowError:
            raise ValueError(f"stick length at n={n} is past the float range") from None

    return ExpandingSystem(f"stick:{vx},{vy}:a={a_target:g}",
                           lambda n: stick_augmented(n, (vx, vy), b_of(n)))


# ---------------------------------------------------------------------------
# L-shapes and staircases
# ---------------------------------------------------------------------------


def lshape(n: int) -> FiniteLattice:
    """Thick L: bottom n^2 x n slab united with the left n x n^2 column.

    Size 2n^3 - n^2 inside the n^2 x n^2 bounding square, whose complement is
    the (n^2-n) x (n^2-n) top-right block.  Its rows are n of width n^2, then
    n^2 - n of width n; the L is its own transpose, so its columns are the same.
    """
    n = _integer(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_coords(0, n * n - 1)
    runs = _band(0, n * n, 0, n)
    runs[:n, 2] = n * n
    return FiniteLattice._from_runs(runs, runs)


def lshape_system() -> ExpandingSystem:
    return ExpandingSystem("lshape", lshape)


def staircase(n: int) -> FiniteLattice:
    """Two stacked rectangles: n^2 x n at the bottom, n x n^2 on top of it.

    Its rows are n of width n^2, then n^2 of width n; its columns are n of
    height n^2 + n, then n^2 - n of height n.
    """
    n = _integer(n)
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_coords(0, n * n + n - 1)
    runs, truns = _band(0, n * n + n, 0, n), _band(0, n * n, 0, n)
    runs[:n, 2], truns[:n, 2] = n * n, n * n + n
    return FiniteLattice._from_runs(runs, truns)


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


def _stacks(entries, step: int):
    """Group (n, lattice, complement) entries into stacks of
    ``(entry, shift, start)``: the entry's lattice moved `shift` rows lies in
    its own band, which owns the stack rows from `start` up to the next start.

    The first lattice of a stack stays put.  Each later one moves by a
    multiple of `step` to at least two rows above the band below, so one empty
    row parts them.  A lattice that would then leave the int64 range starts a
    new stack, and a stack ends once its runs and transposed runs pass
    ``_CHUNK`` rows.
    """
    stack, top, rows = [], None, 0
    for entry in entries:
        runs = entry[1]._runs
        shift = 0
        if top is not None and len(runs):
            shift = (top + 2 - int(runs[0, 0]) + step - 1) // step * step
            if int(runs[-1, 0]) + shift >= 2 ** 63 - 1:
                yield stack
                stack, top, rows, shift = [], None, 0, 0
        stack.append((entry, shift, -2 ** 63 if top is None else top + 1))
        if len(runs):
            top = int(runs[-1, 0]) + shift
        rows += len(runs) + len(entry[1]._truns)
        if rows > _CHUNK:
            yield stack
            stack, top, rows = [], None, 0
    if stack:
        yield stack


def _band_sizes(runs: np.ndarray, starts: list[int]) -> list[int]:
    """Cells of the canonical `runs` in each band of rows from one start to
    the next.  Sums wrap in int64, but each band's difference comes out exact."""
    cells = np.concatenate([[0], (runs[:, 2] - runs[:, 1]).cumsum()])
    return np.diff(cells[np.append(np.searchsorted(runs[:, 0], starts), len(runs))]).tolist()


def _stack_rows(stack, m_max: int, bsizes) -> list[ConditionRow]:
    """The rows of one stack, each statistic from one pass over it all."""
    lats = [lat for (_, lat, _), _, _ in stack]
    starts = [start for _, _, start in stack]
    counts = [len(lat._runs) for lat in lats]
    runs = np.concatenate([lat._runs for lat in lats])
    # the moves are in range, so adding them mod 2**64 in int64 is exact
    shifts = [(shift + 2 ** 63) % 2 ** 64 - 2 ** 63 for _, shift, _ in stack]
    runs[:, 0] += np.repeat(np.array(shifts, dtype=np.int64), counts)
    stacked = FiniteLattice._from_runs(runs)
    interior = _band_sizes(_placement_runs(_WINDOW, stacked), starts)
    # a full block of a band below ends by row start - 1, so below start // l
    full = [_band_sizes(_full_blocks(stacked, k, l), [s // l for s in starts])
            for k, l in bsizes]
    # the number of runs of each length 1..m_max, by axis and band
    truns = [lat._truns for lat in lats]
    lengths = np.concatenate([runs[:, 2] - runs[:, 1]] + [t[:, 2] - t[:, 1] for t in truns])
    band = np.repeat(np.arange(2 * len(lats)), counts + [len(t) for t in truns])
    width = max(m_max, 0)
    short = lengths <= width
    census = np.bincount(band[short] * width + lengths[short] - 1, minlength=2 * len(lats) * width)
    census_h, census_v = census.reshape(2, len(lats), width).tolist()
    rows = []
    for i, ((n, lat, comp), _, _) in enumerate(stack):
        size = len(lat)
        bsize = size - interior[i]
        rows.append(
            ConditionRow(
                n=n,
                size=size,
                boundary_size=bsize,
                boundary_ratio=bsize / size,
                complement_ratio=comp / size,
                run_ratio_h=tuple(m * c / size for m, c in enumerate(census_h[i], 1)),
                run_ratio_v=tuple(m * c / size for m, c in enumerate(census_v[i], 1)),
                block_ratio=tuple((size - f[i] * k * l) / size for f, (k, l) in zip(full, bsizes)),
            )
        )
    return rows


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

    The complement is taken index by index.  The other statistics are taken
    for a stack of indices at once: each index's lattice moves into its own
    band of rows, by a multiple of the lcm of the block heights, with an empty
    row between bands.  Then one interior pass, one full-block pass per block
    size and one tally of the runs of length <= `m_max` (no longer runs are
    counted) serve every lattice of the stack.  A stack ends once its runs
    plus transposed runs pass ``_CHUNK`` = 4,096 rows.  The coverage kernel's
    temporaries are about eight arrays of four times the stacked runs, so the
    bound keeps them near 1 MB.  Squares, with one run per row, skip the
    kernel: up to n = 200 with three block sizes they peak at 0.4 MiB of
    traced memory, against 2.9 MiB as one stack.
    """
    explicit = callable(tessellation)
    if not explicit and tessellation not in ("bounding_rectangle", "self"):
        raise ValueError(f"unknown tessellation choice {tessellation!r}")
    m_max = _integer(m_max)
    bsizes = tuple(_block_sides(*_pair(size)) for size in block_sizes)

    def entries():
        for n in n_range:
            lat = system.lattice(n)
            size = len(lat)
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
            yield n, lat, comp

    step = math.lcm(*(l for _, l in bsizes))
    rows = tuple(row for stack in _stacks(entries(), step) for row in _stack_rows(stack, m_max, bsizes))
    return ConditionReport(
        system=system.name,
        m_max=m_max,
        block_sizes=bsizes,
        tessellation=tessellation,
        rows=rows,
        verdicts={k: classify_trend(v) for k, v in _ratio_columns(rows, m_max, bsizes).items()},
    )
