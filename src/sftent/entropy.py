"""Entropy estimators built on the exact counting engines.

Rectangular entropy is approached through the full table of per-site log
counts (its minimum bounds h_r from above, by the subadditive infimum
characterisation, up to the rounding of the float logs, which is not
rounded outward: see item 2 of ROADMAP.md); entropy along an expanding
family is estimated by a tail-max proxy for the limsup; projectional
entropy counts patterns on one-dimensional segments s*v, locally or, given
a margin, extendably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import ceil
from operator import itemgetter

from .counting import _rect_logs, _string_counts, count, log_count
from .lattice import FiniteLattice, Point, _integer, _pair, _require_primitive, rectangle
from .sft import SftSpec, golden_mean_horizontal, golden_mean_vertical
from .systems import ExpandingSystem

LOG_GOLDEN_MEAN = math.log((1 + math.sqrt(5)) / 2)


@dataclass(frozen=True)
class EntropyRecord:
    n: int
    size: int
    log_count: float
    ratio: float


@dataclass(frozen=True)
class EntropySequence:
    records: tuple[EntropyRecord, ...]
    estimate: float
    estimator_kind: str
    note: str = ""


def _sequence(records: list[EntropyRecord], note: str = "") -> EntropySequence:
    """The records with the tail-max estimate of the limsup: the largest
    ratio over the last third of the records."""
    tail = records[-ceil(len(records) / 3):]
    return EntropySequence(tuple(records), max(r.ratio for r in tail), "limsup_tail_max", note)


@dataclass(frozen=True)
class RectTable:
    """Per-site log counts r(m, n) = log(count on m x n) / (m n).

    The minimum over the table is an upper bound on the rectangular entropy
    only up to the rounding of ``math.log``: the entries are float logs, not
    rounded outward, so the bound is not certified (item 2 of ROADMAP.md).
    Every entry is at least the estimate by construction.
    """

    max_width: int
    max_height: int
    log_counts: tuple[tuple[float, ...], ...]   # [m-1][n-1]

    def ratio(self, m: int, n: int) -> float:
        return self.log_counts[m - 1][n - 1] / (m * n)

    def entries(self):
        for m in range(1, self.max_width + 1):
            for n in range(1, self.max_height + 1):
                yield m, n, self.log_counts[m - 1][n - 1], self.ratio(m, n)

    @cached_property
    def argmin(self) -> tuple[int, int]:
        """The first (m, n), in ``entries()`` order, with the least ratio."""
        return min(self.entries(), key=itemgetter(3))[:2]

    @property
    def h_r_estimate(self) -> float:
        return self.ratio(*self.argmin)


def rect_entropy_table(spec: SftSpec, max_width: int, max_height: int) -> RectTable:
    """Exact-log table over all m x n rectangles up to the given sizes.

    A single-axis spec's table reads one 1-D string-count series and builds
    no lattice; any other spec takes ``log_count`` on each rectangle.
    """
    max_width, max_height = _integer(max_width), _integer(max_height)
    if max_width < 1 or max_height < 1:
        raise ValueError("table sides must be >= 1")
    return RectTable(max_width, max_height, _rect_logs(spec, max_width, max_height))


def system_entropy(
    spec: SftSpec, system: ExpandingSystem, n_lo: int, n_hi: int
) -> EntropySequence:
    """Per-index ratios log(count on lattice(n)) / |lattice(n)| with a
    tail-max estimate of the limsup."""
    n_lo, n_hi = _integer(n_lo), _integer(n_hi)
    if n_hi < n_lo:
        raise ValueError("empty index range")
    records = []
    for n in range(n_lo, n_hi + 1):
        lat = system.lattice(n)
        lc = log_count(lat, spec)
        records.append(EntropyRecord(n, len(lat), lc, lc / len(lat)))
    return _sequence(records)


def segment(v, n: int) -> FiniteLattice:
    """The n-point segment {0, v, 2v, ..., (n-1)v}."""
    vx, vy = _pair(v)
    return FiniteLattice([(s * vx, s * vy) for s in range(n)])


def _along(spec: SftSpec, v: Point) -> SftSpec:
    """The spec seen along direction v: the forbidden patterns whose cells are
    c0 + k*v, each as a 1-D pattern in k along the x axis."""
    line = []
    for pat in spec.forbidden:
        (x0, y0), _ = pat.cells[0]
        ks = [(p.x - x0) // v.x if v.x else (p.y - y0) // v.y for p, _ in pat.cells]
        if all((k * v.x, k * v.y) == (p.x - x0, p.y - y0) for k, (p, _) in zip(ks, pat.cells)):
            line.append([((k, 0), s) for k, (_, s) in zip(ks, pat.cells)])
    return SftSpec.make(spec.alphabet_size, line)


def projectional_entropy(
    spec: SftSpec, v, n_max: int, margin: int | None = None
) -> EntropySequence:
    """Entropy of the restriction to the line through a primitive direction.

    Counts patterns on the n-point segments along v: local counts when
    `margin` is None, else extendable counts with that margin.  A local count
    is the count on an n x 1 row under the spec restricted to v: a_n of its
    string-count series when the restriction is single-axis, as
    ``_rect_logs`` reads it (no lattice), else the profile DP, at any n.  The
    note flags that no restricted pattern fits the longest segment: the local
    counts are then N**n.
    """
    vp = _require_primitive(v)
    n_max = _integer(n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    line = _along(spec, vp)
    constrained = any(pat.extent[0] < n_max for pat in line.forbidden)
    lengths = range(1, n_max + 1)
    if margin is not None:
        values = [count(segment(vp, n), spec, margin=margin).value for n in lengths]
    elif line.pure_axis is not None:     # along x, as `_along` lays every pattern
        values = _string_counts(line, lengths)
    else:
        values = [count(rectangle((0, 0), n, 1), line).value for n in lengths]
    records = []
    for n, value in zip(lengths, values):
        lc = math.log(value) if value else float("-inf")
        records.append(EntropyRecord(n, n, lc, lc / n))
    note = "" if constrained else "no forbidden shape fits the segment; full-shift counts"
    return _sequence(records, note)


def directional_entropy_max(
    spec: SftSpec, directions, n_max: int
) -> tuple[float, Point]:
    """Max projectional estimate over a finite direction set (a lower bound
    for the supremum over all directions); ties go to the first maximiser."""
    dirs = [(_require_primitive(v)) for v in directions]
    if not dirs:
        raise ValueError("need at least one direction")
    best_value = float("-inf")
    best_dir = dirs[0]
    for v in dirs:
        est = projectional_entropy(spec, v, n_max).estimate
        if est > best_value + 1e-15:
            best_value, best_dir = est, v
    return best_value, best_dir


# ---------------------------------------------------------------------------
# strictness of the rectangular infimum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapReport:
    """Margins of every table entry over a reference entropy value.

    For the golden-mean builtins the reference is the closed form
    log((1+sqrt(5))/2); for an unconstrained spec it is log N (the equality
    case, reported via `full_shift`); otherwise the table minimum itself is
    used and tagged accordingly.  `bracket` encloses the true rectangular
    entropy: the upper end is the table minimum (an upper bound by the
    infimum property, up to the rounding of its float logs, which is not
    rounded outward: item 2 of ROADMAP.md); the lower end pads each
    admissible block with a symbol free of constraints and tiles the plane
    with it, when such a symbol exists (-inf otherwise).  `min_margin` is the least margin, first reached at
    `argmin`; `all_strict` says it exceeds 1e-12.
    """

    table: RectTable
    reference: float
    reference_kind: str
    bracket: tuple[float, float]
    min_margin: float
    argmin: tuple[int, int]

    @property
    def full_shift(self) -> bool:
        return self.reference_kind == "closed_form_full_shift"

    @property
    def all_strict(self) -> bool:
        return self.min_margin > 1e-12


def _is_golden_mean(spec: SftSpec) -> bool:
    return spec.forbidden in (
        golden_mean_horizontal().forbidden,
        golden_mean_vertical().forbidden,
    ) and spec.alphabet_size == 2


def strict_gap_check(spec: SftSpec, max_width: int, max_height: int) -> GapReport:
    """Compare every table entry against the reference entropy.

    A spec with a nonempty simplified forbidden set must exceed the reference
    strictly at every finite rectangle; a full shift attains it everywhere.
    """
    table = rect_entropy_table(spec, max_width, max_height)
    if not spec.forbidden:
        reference = math.log(spec.alphabet_size)
        kind = "closed_form_full_shift"
    elif _is_golden_mean(spec):
        reference = LOG_GOLDEN_MEAN
        kind = "closed_form_golden_mean"
    else:
        reference = table.h_r_estimate
        kind = "table_min"
    lower = float("-inf")
    if spec.safe_symbols:
        pad = spec.forbidden_diameter
        lower = max(
            lc / ((m + pad) * (n + pad)) for m, n, lc, _ in table.entries()
        )
    m, n, _, ratio = min(table.entries(), key=lambda e: e[3] - reference)
    return GapReport(table, reference, kind, (lower, table.h_r_estimate), ratio - reference, (m, n))
