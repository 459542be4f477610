"""Finite sublattices of Z^2 and their geometric decompositions.

A :class:`FiniteLattice` is an immutable finite point set stored as row runs:
one int64 array of half-open intervals ``(y, x0, x1)``, sorted by ``(y, x0)``,
with touching runs merged.  Points iterate in row-major order (by y, then x).
Set algebra, dilation and the transpose go through one coverage kernel over
run endpoints (:func:`_cover`), so they cost time in the number of runs, not
of cells: a rectangle with millions of cells has one run per row.  Placements
(:func:`_placement_runs`; the interior is the 2x2 window's) and full blocks
are meets of neighbouring rows' runs, with no sort, when each row holds one
run (rectangles, wedges, L-shapes, staircases), and kernel calls otherwise.
Run censuses read run lengths directly.  Point coordinates are built only on
demand, and nothing is stored per cell of the bounding box.
Every integer argument must be a Python or numpy int, else ValueError (:func:`_integer`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import NonPrimitiveVector, NotDecomposable, SubsetViolation


class Point(NamedTuple):
    x: int
    y: int


def _integer(value) -> int:
    """An integer; bools, floats, strings and the rest raise ValueError."""
    if type(value) is int:
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _real(value) -> float:
    """A real as a float: ints and floats pass; bools, strings, the rest and
    ints past the float range raise ValueError."""
    try:
        if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"expected a real number, got {value!r}")


def _pair(value) -> tuple[int, int]:
    try:
        x, y = value
        if type(x) is int and type(y) is int:
            return x, y
        return _integer(x), _integer(y)
    except (TypeError, ValueError):
        raise ValueError(f"expected a pair of integers, got {value!r}") from None


def _require_primitive(v) -> Point:
    """A direction vector: nonzero with coprime components."""
    vx, vy = _pair(v)
    if math.gcd(vx, vy) != 1:
        raise NonPrimitiveVector(f"direction {(vx, vy)} is not primitive")
    return Point(vx, vy)


# ---------------------------------------------------------------------------
# row runs and the coverage kernel
# ---------------------------------------------------------------------------


def _merge(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Runs (g, a, b) from disjoint pieces [a, b) sorted by (g, a), merging
    pieces of one group that touch."""
    new = np.ones(g.size, dtype=bool)
    new[1:] = (g[1:] != g[:-1]) | (a[1:] != b[:-1])
    return np.column_stack([g[new], a[new], b[np.roll(new, -1)]])


def _cover(keep, *parts) -> np.ndarray:
    """The coverage kernel: canonical runs of the points whose weight satisfies
    `keep`, where each part ``(runs, dy, w)`` adds weight w to the points of
    `runs` moved dy rows.

    Run ends become +w/-w events sorted by (row, x); their cumulative sum is
    the weight of each piece between consecutive events."""
    g = np.concatenate([runs[:, 0] + dy for runs, dy, _ in parts] * 2)
    x = np.concatenate([runs[:, 1] for runs, _, _ in parts] + [runs[:, 2] for runs, _, _ in parts])
    w = np.concatenate([np.full(len(runs), wt) for runs, _, wt in parts])
    order = np.lexsort((x, g))
    g, x, level = g[order], x[order], np.concatenate([w, -w])[order].cumsum()
    piece = keep(level[:-1]) & (g[1:] == g[:-1]) & (x[1:] > x[:-1])
    return _merge(g[:-1][piece], x[:-1][piece], x[1:][piece])


def _size(runs: np.ndarray) -> int:
    return int((runs[:, 2] - runs[:, 1]).sum())


def _cells(runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of every cell of the runs, in run order."""
    lengths = runs[:, 2] - runs[:, 1]
    first = lengths.cumsum() - lengths          # each run's first cell index
    x = np.arange(lengths.sum(), dtype=np.int64) + np.repeat(runs[:, 1] - first, lengths)
    return x, np.repeat(runs[:, 0], lengths)


def _check_coords(lo: int, hi: int) -> None:
    """ValueError unless the coordinates lo..hi (inclusive) lie in
    [-2**63, 2**63 - 1), so that a run's half-open end fits int64 too."""
    if lo < -2 ** 63 or hi >= 2 ** 63 - 1:
        raise ValueError(f"lattice coordinates must lie in [-2**63, 2**63 - 1), got {lo}..{hi}")


def _point_array(points) -> np.ndarray:
    """The (x, y) pairs `points` as an int64 (P, 2) array, checked by ``_check_coords``."""
    try:
        pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    except OverflowError:       # a coordinate beyond int64, which _check_coords rejects
        _check_coords(min(map(min, points)), max(map(max, points)))
    if pts.size:
        _check_coords(int(pts.min()), int(pts.max()))
    return pts


def _moved_back(runs: np.ndarray, x: int, y: int, n: int) -> np.ndarray:
    """As runs, the v that place cells (x, y) .. (x + n - 1, y) inside `runs` (sorted by
    row), less any v outside [-2**63, 2**63 - 1): no coordinate wraps."""
    lo, hi = -2 ** 63, 2 ** 63 - 1
    runs = runs[runs[:, 2] - runs[:, 1] >= n] - np.array([0, 0, n - 1]) if n > 1 else runs
    if x or len(runs) and (runs[0, 0] < lo + max(y, 0) or runs[-1, 0] >= hi + min(y, 0)):
        runs = runs[(runs[:, 0] >= lo + max(y, 0)) & (runs[:, 0] < hi + min(y, 0))]
        # np.clip would page in about 0.4 MB more code on first use
        ends = np.minimum(np.maximum(runs[:, 1:], lo + max(x, 0)), hi + min(x, 0))
        runs = np.column_stack([runs[:, 0], ends])[ends[:, 0] < ends[:, 1]]
    return runs - np.array([y, x, x], dtype=np.int64) if x or y else runs


def _band(g0: int, count: int, a: int, b: int) -> np.ndarray:
    """Runs [a, b) in `count` consecutive groups from g0."""
    runs = np.empty((count, 3), dtype=np.int64)
    runs[:, 0] = np.arange(g0, g0 + count, dtype=np.int64)
    runs[:, 1], runs[:, 2] = a, b
    return runs


class FiniteLattice:
    """Immutable finite subset of Z^2 in canonical row-major point order."""

    def __init__(self, points: Iterable[tuple[int, int]] = ()):
        # an int64 (P, 2) array is taken as is; anything else point by point
        if not (isinstance(points, np.ndarray) and points.dtype == np.int64
                and points.shape[1:] == (2,)):
            points = [_pair(p) for p in points]
        pts = _point_array(points)
        # sort by (y, x), drop repeats; consecutive x in one row join a run
        order = np.lexsort((pts[:, 0], pts[:, 1]))
        x, y = pts[order, 0], pts[order, 1]
        fresh = np.ones(x.size, dtype=bool)
        fresh[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
        x, y = x[fresh], y[fresh]
        self._init(_merge(y, x, x + 1))

    def _init(self, runs: np.ndarray, truns: np.ndarray | None = None) -> None:
        runs.setflags(write=False)
        self._runs = runs
        self._len = _size(runs)
        if truns is not None:
            self.__dict__["_truns"] = truns

    @classmethod
    def _from_runs(cls, runs: np.ndarray, truns: np.ndarray | None = None) -> "FiniteLattice":
        """Wrap canonical runs; `truns`, when known, are the transpose's runs."""
        obj = cls.__new__(cls)
        obj._init(runs, truns)
        return obj

    # -- basic container protocol ------------------------------------------

    @cached_property
    def coords(self) -> np.ndarray:
        """Read-only (P, 2) array of (x, y) pairs in canonical order."""
        coords = np.column_stack(_cells(self._runs))
        coords.setflags(write=False)
        return coords

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Point]:
        for x, y in self.coords.tolist():
            yield Point(x, y)

    def __contains__(self, point) -> bool:
        x, y = point
        if (x, y) != (int(x), int(y)):      # a member equals a point, as dict keys do
            return False
        rows = self._runs[:, 0]
        lo, hi = np.searchsorted(rows, y), np.searchsorted(rows, y, "right")
        i = lo + int(np.searchsorted(self._runs[lo:hi, 1], x, "right")) - 1
        return bool(i >= lo and x < self._runs[i, 2])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return np.array_equal(self._runs, other._runs)

    def __hash__(self) -> int:
        return hash(self._runs.tobytes())

    def __repr__(self) -> str:
        if len(self) <= 8:
            body = ", ".join(f"({x},{y})" for x, y in self.coords.tolist())
        else:
            (ox, oy), w, h = self.bbox
            body = f"{len(self)} points in [{ox},{ox + w})x[{oy},{oy + h})"
        return f"FiniteLattice({body})"

    # -- cached geometry ----------------------------------------------------

    @cached_property
    def bbox(self) -> tuple[Point, int, int]:
        """Smallest axis-aligned rectangle containing the lattice.

        Returns (origin, width, height); the empty lattice reports
        ((0, 0), 0, 0).
        """
        if len(self) == 0:
            return Point(0, 0), 0, 0
        ys, x0, x1 = self._runs.T
        ox, oy = int(x0.min()), int(ys[0])
        return Point(ox, oy), int(x1.max()) - ox, int(ys[-1]) - oy + 1

    @cached_property
    def _one_run_per_row(self) -> bool:
        """Whether each row holds at most one run: the runs' rows strictly increase."""
        return bool((self._runs[1:, 0] > self._runs[:-1, 0]).all())

    @cached_property
    def _truns(self) -> np.ndarray:
        """Runs of the transpose, (x, y0, y1) per vertical run.

        Column x's runs start in the cells of row y minus row y - 1 and end in
        those of row y minus row y + 1; both in (x, y) order pair up."""
        runs = self._runs
        sx, sy = _cells(_cover(lambda c: c == 1, (runs, 0, 1), (runs, 1, -1)))
        ex, ey = _cells(_cover(lambda c: c == 1, (runs, 0, 1), (runs, -1, -1)))
        s, e = np.lexsort((sy, sx)), np.lexsort((ey, ex))
        return np.column_stack([sx[s], sy[s], ey[e] + 1])

    # -- set algebra ---------------------------------------------------------

    def _with(self, other: "FiniteLattice", weight: int, keep) -> np.ndarray:
        return _cover(keep, (self._runs, 0, 1), (other._runs, 0, weight))

    def union(self, other: "FiniteLattice") -> "FiniteLattice":
        return FiniteLattice._from_runs(self._with(other, 1, lambda c: c >= 1))

    def difference(self, other: "FiniteLattice") -> "FiniteLattice":
        return FiniteLattice._from_runs(self._with(other, -1, lambda c: c == 1))

    def intersection(self, other: "FiniteLattice") -> "FiniteLattice":
        return FiniteLattice._from_runs(self._with(other, 1, lambda c: c == 2))

    def issubset(self, other: "FiniteLattice") -> bool:
        return len(self.difference(other)) == 0

    def isdisjoint(self, other: "FiniteLattice") -> bool:
        return len(self.intersection(other)) == 0

    def translate(self, v) -> "FiniteLattice":
        dx, dy = _pair(v)
        (ox, oy), w, h = self.bbox
        _check_coords(min(ox + dx, oy + dy), max(ox + dx + w, oy + dy + h) - 1)
        # the result is in range, so the move mod 2**64 wraps onto it in int64
        dx, dy = ((d + 2 ** 63) % 2 ** 64 - 2 ** 63 for d in (dx, dy))
        return FiniteLattice._from_runs(self._runs + np.array([dy, dx, dx], dtype=np.int64))

    def transpose(self) -> "FiniteLattice":
        """Swap x and y (reflection across the main diagonal)."""
        return FiniteLattice._from_runs(self._truns, self._runs)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def rectangle(origin, m: int, n: int) -> FiniteLattice:
    """The m x n rectangular lattice with left-bottom vertex `origin`."""
    m, n = _integer(m), _integer(n)
    if m < 1 or n < 1:
        raise ValueError(f"rectangle sides must be >= 1, got {m}x{n}")
    ox, oy = _pair(origin)
    _check_coords(min(ox, oy), max(ox + m, oy + n) - 1)
    # a rectangle's transpose is a rectangle: no run ends to pair
    return FiniteLattice._from_runs(_band(oy, n, ox, ox + m), _band(ox, m, oy, oy + n))


def _check_dilation(lat: FiniteLattice, radius: int) -> None:
    """``_check_coords`` of `lat` dilated by `radius` >= 0."""
    (ox, oy), w, h = lat.bbox
    _check_coords(min(ox, oy) - radius, max(ox + w, oy + h) - 1 + radius)


# widened runs in the 2·radius + 1 row-shifted copies up to which, in
# ``dilate``, the coverage kernel over the copies beats the slabs' fixed
# cost (35-140 us against 100 us and up; numpy 2.4, Python 3.11)
_DILATE_COPIES = 64


def dilate(lat: FiniteLattice, radius: int) -> FiniteLattice:
    """All points within Chebyshev distance `radius` of the lattice.

    Each row's runs widen by `radius` once.  Up to ``_DILATE_COPIES`` runs
    in 2·radius + 1 row-shifted copies of them, the coverage kernel unites
    the copies.  Past that, runs of one extent in consecutive rows join
    into a rectangle, widened by `radius` along y too.  The rectangles' row
    ends cut the rows into slabs, each covered by one set of rectangles: the
    kernel unites each slab's runs once, and the union is repeated on every
    row of the slab.  It takes each rectangle once per slab it spans, at
    most as often as the shifted copies hold each of its runs."""
    radius = _integer(radius)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius == 0:
        return lat
    _check_dilation(lat, radius)      # so every sum below stays in int64
    runs = lat._runs
    if (2 * radius + 1) * len(runs) <= _DILATE_COPIES:
        wide = runs + np.array([0, -radius, radius], dtype=np.int64)
        return FiniteLattice._from_runs(
            _cover(lambda c: c >= 1, *[(wide, dy, 1) for dy in range(-radius, radius + 1)]))
    ys, x0, x1 = runs[np.lexsort((runs[:, 0], runs[:, 2], runs[:, 1]))].T     # (x0, x1, y) order
    first = np.flatnonzero(np.concatenate(
        ([True], (x0[1:] != x0[:-1]) | (x1[1:] != x1[:-1]) | (ys[1:] != ys[:-1] + 1))))
    last = np.append(first[1:], len(ys)) - 1
    # rectangle k covers rows [lo, hi) and columns [x0, x1), widened
    lo, hi = ys[first] - radius, ys[last] + 1 + radius
    x0, x1 = x0[first] - radius, x1[first] + radius
    # slab s is rows [bounds[s], bounds[s + 1]).  Deduplicated by hand: a
    # plain np.unique's first call in a process takes milliseconds (numpy 2.4)
    bounds = np.sort(np.concatenate([lo, hi]))
    bounds = bounds[np.concatenate(([True], bounds[1:] != bounds[:-1]))]
    start = np.searchsorted(bounds, lo)
    span = np.searchsorted(bounds, hi) - start
    rect = np.repeat(np.arange(len(lo)), span)
    slab = np.arange(len(rect)) - np.repeat(span.cumsum() - span - start, span)
    union = _cover(lambda c: c >= 1, (np.column_stack([slab, x0[rect], x1[rect]]), 0, 1))
    # per slab its runs on each of its rows, in (row, x) order; a slab's
    # height is exact in uint64, and one holding no run may pass int64
    per = np.bincount(union[:, 0], minlength=len(bounds) - 1)
    heights = np.where(per > 0, np.diff(bounds.view(np.uint64)), 0)
    total = sum(p * h for p, h in zip(per.tolist(), heights.tolist()))     # exact
    if total * 3 * 8 >= 2 ** 63:     # its runs' bytes pass any address space
        raise MemoryError(f"the dilation has {total} runs")
    size = per * heights.astype(np.int64)
    row, k = np.divmod(np.arange(total) - np.repeat(size.cumsum() - size, size), np.repeat(per, size))
    runs = union[np.repeat(per.cumsum() - per, size) + k]
    runs[:, 0] = np.repeat(bounds[:-1], size) + row
    return FiniteLattice._from_runs(runs)


# ---------------------------------------------------------------------------
# interior / boundary / complements
# ---------------------------------------------------------------------------


_WINDOW = ((0, 0), (1, 0), (0, 1), (1, 1))     # the 2x2 window: it places at the interior cells


@lru_cache(maxsize=256)
def _shape_rows(offsets: tuple) -> tuple:
    """The runs (dy, dx0, dx1) of the cells `offsets`; per row its dy, least and greatest dx less a
    shared dx (given apart); a meet's reach below x0 and (negated) past x1; for rows 0..d, slices."""
    runs = tuple(map(tuple, FiniteLattice(offsets)._runs.tolist()))     # checked as points are
    los, his = {y: x0 for y, x0, _ in runs[::-1]}, {y: x1 - 1 for y, _, x1 in runs}
    dys, lo, hi = tuple(his), [los[y] for y in his], list(his.values())
    lo0, hi0 = (lo[0] if len(set(lo)) == 1 else 0), (hi[0] if len(set(hi)) == 1 else 0)
    at = tuple(slice(y, y - dys[-1] or None) for y in dys) if dys == tuple(range(len(dys))) else None
    return (runs, dys, lo0, tuple(x - lo0 for x in lo), hi0, tuple(x - hi0 for x in hi),
            max(max(lo), max(hi) - 1), min(min(hi), min(lo) + 1), at)


def _placement_runs(offsets: tuple, lat: FiniteLattice) -> np.ndarray:
    """The anchors v with `offsets` + v inside `lat`, as row runs in (y, x)
    order.  Where each row holds one run and the shape's lowest row is 0,
    row y's are the meet over the shape's rows dy of ``[x0(y + dy) - min dx,
    x1(y + dy) - max dx)``, kept where every row y + dy is present: for rows
    0..d, rows y..y + d are runs i..i + d exactly when ``ys[i + d] == ys[i] +
    d``, so slices meet; skipping a row, a shape finds its rows by searchsorted.
    Where that could leave int64, or elsewhere, they are covered by the kernel
    parts ``_moved_back(runs, dx, dy, n)`` of its runs of n cells at (dx, dy)."""
    if not offsets or not lat._len:
        return np.empty((0, 3), dtype=np.int64)
    shape, dys, lo0, lo_dx, hi0, hi_dx, down, up, at = _shape_rows(offsets)
    (ys, x0, x1), d = lat._runs.T, dys[-1]
    if (dys[0] != 0 or not lat._one_run_per_row or int(ys[-1]) + d >= 2 ** 63
            or down > 0 and int(x0.min()) - down < -2 ** 63 or up < 0 and int(x1.max()) - up >= 2 ** 63):
        parts = [(_moved_back(lat._runs, a, y, b - a), 0, 1) for y, a, b in shape]
        return _cover(lambda c: c == len(parts), *parts)
    if at is None:
        at = np.minimum(np.searchsorted(ys, want := ys + np.array(dys)[:, None]), len(ys) - 1)
        keep = (ys[at] == want).all(0)
    else:
        keep = ys[at[-1]] == ys[at[0]] + d
    lo = reduce(np.maximum, [x0[i] - dx if dx else x0[i] for i, dx in zip(at, lo_dx)])
    hi = reduce(np.minimum, [x1[i] - dx if dx else x1[i] for i, dx in zip(at, hi_dx)])
    lo, hi = lo - lo0 if lo0 else lo, hi - hi0 if hi0 else hi
    keep &= lo < hi
    return np.column_stack([ys[:len(keep)][keep], lo[keep], hi[keep]])


def interior(lat: FiniteLattice) -> FiniteLattice:
    """Points whose +x, +y and +x+y neighbours also belong to the lattice."""
    return FiniteLattice._from_runs(_placement_runs(_WINDOW, lat))


def boundary(lat: FiniteLattice) -> FiniteLattice:
    """The lattice minus its interior."""
    return lat.difference(interior(lat))


def boundary_size(lat: FiniteLattice) -> int:
    """|boundary(lat)| without materialising the point set."""
    return len(lat) - _size(_placement_runs(_WINDOW, lat))


def complement_in(inner: FiniteLattice, outer: FiniteLattice) -> FiniteLattice:
    """outer minus inner; requires inner to be a subset of outer."""
    if not inner.issubset(outer):
        raise SubsetViolation("first lattice is not contained in the second")
    return outer.difference(inner)


# ---------------------------------------------------------------------------
# block decomposition on the global k x l grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockDecomposition:
    """Decomposition of a lattice against the origin-aligned k x l grid.

    `index_set` holds the grid cells (a, b) whose k x l block lies entirely
    inside the source lattice; `covered` is their union and `residue` the
    leftover cells, so that |source| = alpha*k*l + beta exactly.
    """

    k: int
    l: int
    index_set: frozenset
    alpha: int
    covered: FiniteLattice
    residue: FiniteLattice
    beta: int


def _full_blocks(lat: FiniteLattice, k: int, l: int) -> np.ndarray:
    """Runs (b, a0, a1) of the grid blocks [a*k, a*k + k) x [b*l, b*l + l)
    inside the lattice: the blocks each row's runs contain, met over the l
    rows of band b.  The sides are ints from :func:`_block_sides`."""
    ys, x0, x1 = lat._runs.T
    a0, rem = np.divmod(x0, k)
    a0 += rem != 0                      # ceil(x0 / k), even at x0 = -2**63
    a1, bands = x1 // k, ys // l
    if lat._one_run_per_row:
        # one run a row: a band's blocks are the meet of its rows', if it has all l
        first = np.ones(ys.size, dtype=bool)
        first[1:] = bands[1:] != bands[:-1]
        starts = np.flatnonzero(first)
        lo, hi = np.maximum.reduceat(a0, starts), np.minimum.reduceat(a1, starts)
        keep = (np.diff(starts, append=ys.size) == l) & (lo < hi)
        return np.column_stack([bands[starts][keep], lo[keep], hi[keep]])
    rows = np.column_stack([bands, a0, a1])[a1 > a0]
    return _cover(lambda c: c == l, (rows, 0, 1))


def _block_sides(k, l) -> tuple[int, int]:
    """Block sides as ints in [1, 2**63 - 1], else ValueError."""
    k, l = _integer(k), _integer(l)
    if not (1 <= k < 2 ** 63 and 1 <= l < 2 ** 63):
        raise ValueError(f"block sides must lie in [1, 2**63 - 1], got {k}x{l}")
    return k, l


def block_residue_size(lat: FiniteLattice, k: int, l: int) -> int:
    """Number of cells not covered by fully-contained grid-aligned blocks."""
    k, l = _block_sides(k, l)
    return len(lat) - _size(_full_blocks(lat, k, l)) * k * l


def block_decompose(lat: FiniteLattice, k: int, l: int) -> BlockDecomposition:
    """Decompose against the k x l grid anchored at the global origin."""
    k, l = _block_sides(k, l)
    full = _full_blocks(lat, k, l)
    index_set = frozenset((a, b) for b, a0, a1 in full.tolist() for a in range(a0, a1))
    alpha = _size(full)
    # the full blocks' bottom rows, repeated over the l rows of their band; a
    # band's runs are blocks apart, so sorting them by row leaves them canonical
    rows = np.repeat(full * np.array([l, k, k], dtype=np.int64), l, axis=0)
    rows[:, 0] += np.arange(len(rows)) % l
    covered = FiniteLattice._from_runs(rows[np.lexsort((rows[:, 1], rows[:, 0]))])
    residue = lat.difference(covered)
    assert len(lat) == alpha * k * l + len(residue)
    return BlockDecomposition(k, l, index_set, alpha, covered, residue, len(residue))


# ---------------------------------------------------------------------------
# run lengths
# ---------------------------------------------------------------------------


def _axis_runs(lat: FiniteLattice, axis: str) -> np.ndarray:
    """Maximal runs along the axis: the lattice's own, or its transpose's."""
    if axis not in ("horizontal", "vertical"):
        raise ValueError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")
    return lat._runs if axis == "horizontal" else lat._truns


def _run_lengths(lat: FiniteLattice, axis: str) -> dict[int, int]:
    """Map run length -> number of maximal runs of that length, ascending."""
    runs = _axis_runs(lat, axis)
    lengths, counts = np.unique(runs[:, 2] - runs[:, 1], return_counts=True)
    return dict(zip(lengths.tolist(), counts.tolist()))


def run_census(lat: FiniteLattice, axis: str) -> dict[int, int]:
    """Map run length -> number of cells whose maximal run has that length."""
    return {m: m * c for m, c in _run_lengths(lat, axis).items()}


def run_length_class(lat: FiniteLattice, axis: str, m: int) -> FiniteLattice:
    """Cells whose maximal axis-aligned run inside the lattice has length m."""
    runs = _axis_runs(lat, axis)
    m = _integer(m)
    if m < 1:
        raise ValueError("run length must be >= 1")
    cls = FiniteLattice._from_runs(runs[runs[:, 2] - runs[:, 1] == m])
    return cls if axis == "horizontal" else cls.transpose()


# ---------------------------------------------------------------------------
# band decomposition along full lines
# ---------------------------------------------------------------------------


def decompose_bands(lat: FiniteLattice, axis: str) -> list[FiniteLattice]:
    """Cut along horizontal (resp. vertical) lines into rectangles.

    Each band is a maximal group of consecutive rows (resp. columns) with
    identical contiguous support, so the number of rectangles is minimal for
    line cuts.  Raises NotDecomposable when some row's support has a gap.
    """
    ys, x0, x1 = _axis_runs(lat, axis).T
    if len(lat) == 0:
        return []
    if (ys[1:] == ys[:-1]).any():
        raise NotDecomposable("a line's support is not contiguous")
    cuts = np.flatnonzero((ys[1:] != ys[:-1] + 1) | (x0[1:] != x0[:-1]) | (x1[1:] != x1[:-1])) + 1
    bands: list[FiniteLattice] = []
    for first, last in zip([0, *cuts.tolist()], [*(cuts - 1).tolist(), ys.size - 1]):
        origin = (int(x0[first]), int(ys[first]))
        width, height = int(x1[first] - x0[first]), int(ys[last] - ys[first]) + 1
        if axis == "vertical":
            origin = (origin[1], origin[0])
            width, height = height, width
        bands.append(rectangle(origin, width, height))
    return bands


# ---------------------------------------------------------------------------
# translational tilings
# ---------------------------------------------------------------------------


_TORUS_SIDE_FACTOR = 4   # torus sides searched: up to this many tile diameters


@dataclass(frozen=True)
class TessellationResult:
    status: str                                    # "yes" | "no" | "unknown"
    periods: tuple[Point, Point] | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status == "yes"


def _divisors(t: int) -> list[int]:
    out = [d for d in range(1, int(math.isqrt(t)) + 1) if t % d == 0]
    return sorted(set(out + [t // d for d in out]))


def _lattice_tiling(cells: list[tuple[int, int]]) -> tuple[Point, Point] | None:
    """Search all index-|T| sublattices (Hermite form) for a coset bijection.

    T tiles Z^2 with translate set Lambda iff T is a complete residue system
    modulo Lambda; Hermite bases (a,0), (c,d) with a*d = |T|, 0 <= c < a
    enumerate every such sublattice exactly once.
    """
    t = len(cells)

    def bijective(a: int, c: int, d: int) -> bool:
        seen = set()
        for x, y in cells:
            q, ry = divmod(y, d)
            seen.add(((x - c * q) % a, ry))
        return len(seen) == t

    # axis-aligned lattices first so rectangles report (w, 0), (0, h)
    for d in _divisors(t):
        if bijective(t // d, 0, d):
            return Point(t // d, 0), Point(0, d)
    for d in _divisors(t):
        a = t // d
        for c in range(1, a):
            if bijective(a, c, d):
                return Point(a, 0), Point(c, d)
    return None


def _exact_cover(order: list, candidates, node_cap: int) -> bool | None:
    """Can disjoint candidate sets cover every cell of ``order``?

    Depth-first search with an explicit stack: take the first uncovered cell,
    then try each candidate set ``candidates(cell)`` that avoids the covered
    cells.  Every entered node counts once; returns None once more than
    ``node_cap`` nodes are entered.
    """
    used: set = set()
    frames = []             # per open node: [cell index, candidate iterator, placed set]
    idx = nodes = 0
    while True:
        nodes += 1
        if nodes > node_cap:
            return None
        while idx < len(order) and order[idx] in used:
            idx += 1
        if idx == len(order):
            return True
        frames.append([idx, iter(candidates(order[idx])), ()])
        while frames:
            frame = frames[-1]
            used.difference_update(frame[2])
            frame[2] = next(filter(used.isdisjoint, frame[1]), None)
            if frame[2] is not None:
                used.update(frame[2])
                idx = frame[0] + 1
                break
            frames.pop()
        else:
            return False


def _torus_cover(cells: list[tuple[int, int]], p: int, q: int, node_cap: int) -> bool:
    """Exact cover of the p x q torus by wrapped translates (False on node-cap)."""
    shape = [(x % p, y % q) for x, y in cells]
    placements: dict[tuple[int, int], list[frozenset]] = {}
    for vx in range(p):
        for vy in range(q):
            cover = frozenset(((x + vx) % p, (y + vy) % q) for x, y in shape)
            if len(cover) != len(cells):
                return False  # translate self-overlaps on this torus
            for cell in cover:
                placements.setdefault(cell, []).append(cover)
    order = [(x, y) for y in range(q) for x in range(p)]
    return _exact_cover(order, lambda cell: placements.get(cell, ()), node_cap) is True


def _region_cover_exists(cells: list[tuple[int, int]], radius: int, node_cap: int) -> bool | None:
    """Can disjoint translates cover the square region of the given radius?

    Returns True/False when the search completes, None on node-cap.
    Any tiling of the plane restricts to such a cover, so False certifies
    that no tiling exists.
    """
    region = [(x, y) for y in range(-radius, radius + 1) for x in range(-radius, radius + 1)]
    region_set = set(region)

    def translates(cell):   # each translate placing one tile cell onto this cell, clipped
        for vx, vy in ((cell[0] - ax, cell[1] - ay) for ax, ay in cells):
            yield [c for x, y in cells if (c := (x + vx, y + vy)) in region_set]

    return _exact_cover(region, translates, node_cap)


def is_tessellation(tile: FiniteLattice) -> TessellationResult:
    """Decide whether translates of the tile partition Z^2.

    Single-lattice tilings are decided exactly by enumerating all sublattices
    of index |tile|.  Failing that, a bounded exact-cover search on small tori
    looks for periodic multi-translate tilings, and an exhaustive bounded
    region-cover search can certify impossibility.  Returns "unknown" when the
    bounded searches are inconclusive.
    """
    if len(tile) == 0:
        raise ValueError("tile must be nonempty")
    cells = [tuple(c) for c in tile.coords.tolist()]
    found = _lattice_tiling(cells)
    if found is not None:
        return TessellationResult("yes", found, "single-lattice tiling")
    _, w, h = tile.bbox
    diam = max(w, h)
    t = len(cells)
    # multi-translate periodic tilings on small tori
    limit = _TORUS_SIDE_FACTOR * diam
    for p in range(1, limit + 1):
        for q in range(1, limit + 1):
            if (p * q) % t or p * q <= t or p * q > 8 * t:
                continue
            if p < w or q < h:
                continue
            if _torus_cover(cells, p, q, node_cap=200_000):
                return TessellationResult("yes", (Point(p, 0), Point(0, q)), "torus exact cover")
    covered = _region_cover_exists(cells, radius=diam + 1, node_cap=500_000)
    if covered is False:
        return TessellationResult("no", None, "no cover of a finite region exists")
    return TessellationResult("unknown", None, "bounded search inconclusive")
