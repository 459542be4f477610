"""Finite sublattices of Z^2 and their geometric decompositions.

A :class:`FiniteLattice` is an immutable finite point set stored in canonical
row-major order (sorted by y, then x).  All statistics used by the entropy
machinery (boundary size, residue of a block decomposition, run-length
censuses) are computed on a cached boolean occupancy grid so that lattices
with millions of cells stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import NotDecomposable, SubsetViolation


class Point(NamedTuple):
    x: int
    y: int


def _keys(coords: np.ndarray) -> np.ndarray:
    """Pack (x, y) rows into int64 keys, collision-free on [-2**31, 2**31)."""
    if coords.size and (coords.min() < -2**31 or coords.max() >= 2**31):
        raise ValueError("coordinates outside [-2**31, 2**31) cannot be packed")
    return coords[:, 1] * np.int64(2**32) + coords[:, 0]


def _canonical(arr: np.ndarray) -> np.ndarray:
    """Dedup and sort by (y, x)."""
    arr = np.asarray(arr, dtype=np.int64).reshape(-1, 2)
    if arr.shape[0] == 0:
        return arr
    arr = np.unique(arr, axis=0)                      # dedup, sorted by (x, y)
    return arr[np.lexsort((arr[:, 0], arr[:, 1]))]    # re-sort by (y, x)


class FiniteLattice:
    """Immutable finite subset of Z^2 in canonical row-major point order."""

    def __init__(self, points: Iterable[tuple[int, int]] = ()):
        coords = points if isinstance(points, np.ndarray) else np.array(
            [(int(p[0]), int(p[1])) for p in points], dtype=np.int64
        ).reshape(-1, 2)
        self._coords = _canonical(coords)
        self._coords.setflags(write=False)

    @classmethod
    def _trusted(cls, coords: np.ndarray) -> "FiniteLattice":
        """Wrap an array already deduped and in canonical (y, x) order."""
        obj = cls.__new__(cls)
        coords = np.ascontiguousarray(coords, dtype=np.int64).reshape(-1, 2)
        coords.setflags(write=False)
        obj._coords = coords
        return obj

    # -- basic container protocol ------------------------------------------

    @property
    def coords(self) -> np.ndarray:
        """Read-only (P, 2) array of (x, y) pairs in canonical order."""
        return self._coords

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self._coords.shape[0]

    def __iter__(self) -> Iterator[Point]:
        for x, y in self._coords.tolist():
            yield Point(x, y)

    def __contains__(self, point) -> bool:
        return (int(point[0]), int(point[1])) in self._point_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return np.array_equal(self._coords, other._coords)

    def __hash__(self) -> int:
        return hash(self._coords.tobytes())

    def __repr__(self) -> str:
        if len(self) <= 8:
            body = ", ".join(f"({x},{y})" for x, y in self._coords.tolist())
        else:
            (ox, oy), w, h = self.bbox
            body = f"{len(self)} points in [{ox},{ox + w})x[{oy},{oy + h})"
        return f"FiniteLattice({body})"

    @cached_property
    def _point_set(self) -> frozenset:
        return frozenset(map(tuple, self._coords.tolist()))

    # -- cached geometry ----------------------------------------------------

    @cached_property
    def bbox(self) -> tuple[Point, int, int]:
        """Smallest axis-aligned rectangle containing the lattice.

        Returns (origin, width, height); the empty lattice reports
        ((0, 0), 0, 0).
        """
        if len(self) == 0:
            return Point(0, 0), 0, 0
        xs, ys = self._coords[:, 0], self._coords[:, 1]
        ox, oy = int(xs.min()), int(ys.min())
        return Point(ox, oy), int(xs.max()) - ox + 1, int(ys.max()) - oy + 1

    @cached_property
    def _mask(self) -> np.ndarray:
        """(height, width) boolean occupancy grid relative to bbox origin."""
        (ox, oy), w, h = self.bbox
        grid = np.zeros((h, w), dtype=bool)
        if len(self):
            grid[self._coords[:, 1] - oy, self._coords[:, 0] - ox] = True
        return grid

    # -- set algebra ---------------------------------------------------------

    def union(self, other: "FiniteLattice") -> "FiniteLattice":
        return FiniteLattice(np.concatenate([self._coords, other._coords]))

    def difference(self, other: "FiniteLattice") -> "FiniteLattice":
        if len(self) == 0 or len(other) == 0:
            return self
        keep = ~np.isin(_keys(self._coords), _keys(other._coords))
        return FiniteLattice._trusted(self._coords[keep])

    def intersection(self, other: "FiniteLattice") -> "FiniteLattice":
        if len(self) == 0 or len(other) == 0:
            return FiniteLattice()
        keep = np.isin(_keys(self._coords), _keys(other._coords))
        return FiniteLattice._trusted(self._coords[keep])

    def issubset(self, other: "FiniteLattice") -> bool:
        if len(self) == 0:
            return True
        if len(other) == 0:
            return False
        return bool(np.isin(_keys(self._coords), _keys(other._coords)).all())

    def isdisjoint(self, other: "FiniteLattice") -> bool:
        if len(self) == 0 or len(other) == 0:
            return True
        return not np.isin(_keys(self._coords), _keys(other._coords)).any()

    def translate(self, v) -> "FiniteLattice":
        return FiniteLattice._trusted(self._coords + np.array([int(v[0]), int(v[1])], dtype=np.int64))

    def transpose(self) -> "FiniteLattice":
        """Swap x and y (reflection across the main diagonal)."""
        return FiniteLattice(self._coords[:, ::-1])


def _from_mask(mask: np.ndarray, origin: tuple[int, int]) -> FiniteLattice:
    ys, xs = np.nonzero(mask)  # row-major scan: already sorted by (y, x)
    coords = np.empty((xs.size, 2), dtype=np.int64)
    coords[:, 0] = xs + origin[0]
    coords[:, 1] = ys + origin[1]
    return FiniteLattice._trusted(coords)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def rectangle(origin, m: int, n: int) -> FiniteLattice:
    """The m x n rectangular lattice with left-bottom vertex `origin`."""
    if m < 1 or n < 1:
        raise ValueError(f"rectangle sides must be >= 1, got {m}x{n}")
    ox, oy = int(origin[0]), int(origin[1])
    coords = np.empty((m * n, 2), dtype=np.int64)
    coords[:, 0] = np.tile(np.arange(ox, ox + m, dtype=np.int64), n)
    coords[:, 1] = np.repeat(np.arange(oy, oy + n, dtype=np.int64), m)
    lat = FiniteLattice._trusted(coords)
    # seed the cached grid: rebuilding it from 10^7 coordinates is the only
    # expensive step for large rectangles
    lat.__dict__["bbox"] = (Point(ox, oy), m, n)
    lat.__dict__["_mask"] = np.ones((n, m), dtype=bool)
    return lat


def dilate(lat: FiniteLattice, radius: int) -> FiniteLattice:
    """All points within Chebyshev distance `radius` of the lattice."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius == 0 or len(lat) == 0:
        return lat
    (ox, oy), w, h = lat.bbox
    grid = np.zeros((h + 2 * radius, w + 2 * radius), dtype=bool)
    base = lat._mask
    for dy in range(2 * radius + 1):
        for dx in range(2 * radius + 1):
            grid[dy:dy + h, dx:dx + w] |= base
    return _from_mask(grid, (ox - radius, oy - radius))


# ---------------------------------------------------------------------------
# interior / boundary / complements
# ---------------------------------------------------------------------------


def _interior_mask(mask: np.ndarray) -> np.ndarray:
    # keep (i, j) iff (i+1, j), (i, j+1), (i+1, j+1) are all present
    h, w = mask.shape
    padded = np.zeros((h + 1, w + 1), dtype=bool)
    padded[:h, :w] = mask
    return mask & padded[:h, 1:w + 1] & padded[1:h + 1, :w] & padded[1:h + 1, 1:w + 1]


def interior(lat: FiniteLattice) -> FiniteLattice:
    """Points whose +x, +y and +x+y neighbours also belong to the lattice."""
    if len(lat) == 0:
        return lat
    return _from_mask(_interior_mask(lat._mask), lat.bbox[0])


def boundary(lat: FiniteLattice) -> FiniteLattice:
    """The lattice minus its interior."""
    if len(lat) == 0:
        return lat
    return _from_mask(lat._mask & ~_interior_mask(lat._mask), lat.bbox[0])


def boundary_size(lat: FiniteLattice) -> int:
    """|boundary(lat)| without materialising the point set."""
    if len(lat) == 0:
        return 0
    return len(lat) - int(_interior_mask(lat._mask).sum())


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


def _block_grid(mask: np.ndarray, origin: tuple[int, int], k: int, l: int):
    """Pad the mask so its origin sits on the global k x l grid.

    Returns (block_full, padded_mask, pad_x, pad_y, first_block_index).
    """
    h, w = mask.shape
    ox, oy = origin
    px, py = ox % k, oy % l          # Python mod: result is nonnegative
    wp = -(-(w + px) // k) * k
    hp = -(-(h + py) // l) * l
    padded = np.zeros((hp, wp), dtype=bool)
    padded[py:py + h, px:px + w] = mask
    full = padded.reshape(hp // l, l, wp // k, k).all(axis=(1, 3))
    return full, padded, px, py, ((ox - px) // k, (oy - py) // l)


def block_residue_size(lat: FiniteLattice, k: int, l: int) -> int:
    """Number of cells not covered by fully-contained grid-aligned blocks."""
    if len(lat) == 0:
        return 0
    full, _, _, _, _ = _block_grid(lat._mask, lat.bbox[0], k, l)
    return len(lat) - int(full.sum()) * k * l


def block_decompose(lat: FiniteLattice, k: int, l: int) -> BlockDecomposition:
    """Decompose against the k x l grid anchored at the global origin."""
    if k < 1 or l < 1:
        raise ValueError("block sides must be >= 1")
    if len(lat) == 0:
        return BlockDecomposition(k, l, frozenset(), 0, lat, lat, 0)
    mask = lat._mask
    (ox, oy), w, h = lat.bbox
    full, _, px, py, (a0, b0) = _block_grid(mask, (ox, oy), k, l)
    bs, as_ = np.nonzero(full)
    index_set = frozenset((int(a) + a0, int(b) + b0) for b, a in zip(bs, as_))
    covered_padded = np.repeat(np.repeat(full, l, axis=0), k, axis=1)
    covered_mask = covered_padded[py:py + h, px:px + w]
    alpha = int(full.sum())
    covered = _from_mask(covered_mask, (ox, oy))
    residue = _from_mask(mask & ~covered_mask, (ox, oy))
    assert len(lat) == alpha * k * l + len(residue)
    return BlockDecomposition(k, l, index_set, alpha, covered, residue, len(residue))


# ---------------------------------------------------------------------------
# run lengths
# ---------------------------------------------------------------------------


def _run_spans(mask: np.ndarray):
    """Start/length of every maximal horizontal run, over the row-padded scan."""
    h, w = mask.shape
    padded = np.zeros((h, w + 1), dtype=bool)
    padded[:, :w] = mask
    flat = padded.ravel()
    diff = np.diff(flat.astype(np.int8))
    starts = np.flatnonzero(diff == 1) + 1
    ends = np.flatnonzero(diff == -1) + 1
    if flat.size and flat[0]:
        starts = np.concatenate([[0], starts])
    return flat, starts, ends - starts


def run_census(lat: FiniteLattice, axis: str) -> dict[int, int]:
    """Map run length -> number of cells whose maximal run has that length."""
    if axis not in ("horizontal", "vertical"):
        raise ValueError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")
    if len(lat) == 0:
        return {}
    mask = lat._mask if axis == "horizontal" else lat._mask.T
    _, _, lengths = _run_spans(mask)
    counts = np.bincount(lengths)
    return {int(m): int(m * counts[m]) for m in range(1, counts.size) if counts[m]}


def run_length_class(lat: FiniteLattice, axis: str, m: int) -> FiniteLattice:
    """Cells whose maximal axis-aligned run inside the lattice has length m."""
    if axis not in ("horizontal", "vertical"):
        raise ValueError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")
    if m < 1:
        raise ValueError("run length must be >= 1")
    if len(lat) == 0:
        return lat
    transpose = axis == "vertical"
    mask = lat._mask.T if transpose else lat._mask
    flat, _, lengths = _run_spans(mask)
    percell = np.repeat(lengths, lengths)          # aligned with True scan order
    keep_flat = np.zeros(flat.size, dtype=bool)
    positions = np.flatnonzero(flat)
    keep_flat[positions[percell == m]] = True
    keep = keep_flat.reshape(mask.shape[0], mask.shape[1] + 1)[:, :mask.shape[1]]
    if transpose:
        keep = keep.T
    return _from_mask(keep, lat.bbox[0])


# ---------------------------------------------------------------------------
# band decomposition along full lines
# ---------------------------------------------------------------------------


def decompose_bands(lat: FiniteLattice, axis: str) -> list[FiniteLattice]:
    """Cut along horizontal (resp. vertical) lines into rectangles.

    Each band is a maximal group of consecutive rows (resp. columns) with
    identical contiguous support, so the number of rectangles is minimal for
    line cuts.  Raises NotDecomposable when some row's support has a gap.
    """
    if axis not in ("horizontal", "vertical"):
        raise ValueError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")
    if len(lat) == 0:
        return []
    coords = lat.coords if axis == "horizontal" else lat.transpose().coords
    ys = coords[:, 1]
    rows, first, counts = np.unique(ys, return_index=True, return_counts=True)
    xmin = coords[first, 0]
    xmax = coords[first + counts - 1, 0]
    if not np.array_equal(counts, xmax - xmin + 1):
        raise NotDecomposable("a line's support is not contiguous")
    bands: list[FiniteLattice] = []
    start = 0
    for i in range(1, rows.size + 1):
        boundary_here = (
            i == rows.size
            or rows[i] != rows[i - 1] + 1
            or xmin[i] != xmin[start]
            or xmax[i] != xmax[start]
        )
        if boundary_here:
            origin = (int(xmin[start]), int(rows[start]))
            width = int(xmax[start] - xmin[start]) + 1
            height = int(rows[i - 1] - rows[start]) + 1
            if axis == "vertical":
                origin = (origin[1], origin[0])
                width, height = height, width
            bands.append(rectangle(origin, width, height))
            start = i
    return bands


# ---------------------------------------------------------------------------
# translational tilings
# ---------------------------------------------------------------------------


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


def _torus_cover(cells: list[tuple[int, int]], p: int, q: int, node_cap: int) -> bool:
    """Exact cover of the p x q torus by wrapped translates (backtracking)."""
    shape = [(x % p, y % q) for x, y in cells]
    placements: dict[tuple[int, int], list[frozenset]] = {}
    all_placements = []
    for vx in range(p):
        for vy in range(q):
            cover = frozenset(((x + vx) % p, (y + vy) % q) for x, y in shape)
            if len(cover) != len(cells):
                return False  # translate self-overlaps on this torus
            all_placements.append(cover)
    for pl in all_placements:
        for cell in pl:
            placements.setdefault(cell, []).append(pl)
    order = [(x, y) for y in range(q) for x in range(p)]
    used: set = set()
    nodes = 0

    def cover_from(idx: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise TimeoutError
        while idx < len(order) and order[idx] in used:
            idx += 1
        if idx == len(order):
            return True
        cell = order[idx]
        for pl in placements.get(cell, ()):
            if used.isdisjoint(pl):
                used.update(pl)
                if cover_from(idx + 1):
                    return True
                used.difference_update(pl)
        return False

    try:
        return cover_from(0)
    except TimeoutError:
        return False


def _region_cover_exists(cells: list[tuple[int, int]], radius: int, node_cap: int) -> bool | None:
    """Can disjoint translates cover the square region of the given radius?

    Returns True/False when the backtracking completes, None on node-cap.
    Any tiling of the plane restricts to such a cover, so False certifies
    that no tiling exists.
    """
    region = [(x, y) for y in range(-radius, radius + 1) for x in range(-radius, radius + 1)]
    region_set = set(region)
    used: set = set()
    nodes = 0

    def cover_from(idx: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise TimeoutError
        while idx < len(region) and region[idx] in used:
            idx += 1
        if idx == len(region):
            return True
        zx, zy = region[idx]
        for ax, ay in cells:  # translate placing cell (ax, ay) onto (zx, zy)
            vx, vy = zx - ax, zy - ay
            translate = [(x + vx, y + vy) for x, y in cells]
            if any(c in used for c in translate if c in region_set):
                continue
            added = [c for c in translate if c in region_set]
            used.update(added)
            if cover_from(idx + 1):
                return True
            used.difference_update(added)
        return False

    try:
        return cover_from(0)
    except TimeoutError:
        return None


def is_tessellation(tile: FiniteLattice, bound: int = 4) -> TessellationResult:
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
    limit = max(1, bound) * diam
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
