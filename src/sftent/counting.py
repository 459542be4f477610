"""Exact pattern counting engines.

Three routes compute the number of locally admissible assignments on a finite
lattice:

* ``count_bruteforce`` -- exhaustive depth-first search over all assignments,
  the reference oracle, budgeted at ``N ** |L|`` leaves.  The same search
  (``_search``) enumerates admissible patterns, decides extension questions
  and backs the multiplicative brute force.
* ``count_profile_dp`` -- a frontier dynamic program for specs whose forbidden
  shapes fit a 2x2 window.  When constraints never leave a single row (or
  column) the count factorises over maximal runs and is evaluated as a product
  of 1-D transfer counts, which keeps lattices with millions of cells exact.
  Otherwise a broken-profile sweep over the bounding box carries one symbol
  (or an absent marker for cells outside the lattice) per frontier position.
* ``log_count`` -- natural log of the count, normalising per step on the
  generic path so huge lattices never materialise huge integers.

Counts are exact arbitrary-precision integers; ``count`` dispatches between
the routes and also exposes the extendable-count refinement.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .errors import BudgetExceeded, UnsupportedForbiddenShape
from .lattice import FiniteLattice, dilate, _run_spans
from .sft import CountResult, SftSpec, forbidden_occurrences

DEFAULT_BUDGET = 2 ** 24     # cap on N ** |free cells| for exhaustive routes
FRONTIER_CAP = 24            # cap on the broken-profile frontier length
ABSENT = -1                  # marker for bounding-box cells outside the lattice


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------


def _check_budget(alphabet_size: int, cells: int, budget: int) -> None:
    # N >= 2, so N**cells >= 2**cells > budget once cells >= budget.bit_length()
    if cells >= int(budget).bit_length() or alphabet_size ** cells > budget:
        raise BudgetExceeded(f"{alphabet_size}**{cells} assignments exceed budget {budget}")


def _search(domains, checks, budget=math.inf):
    """Depth-first search over admissible assignments, on an explicit stack.

    Cell i takes symbols from ``domains[i]`` except ``banned[read(assign)]``
    for each ``(read, banned)`` in ``checks[i]``.  Yields ``(assign, leaves)``
    per admissible assignment of all cells but the last, ``leaves`` being the
    last cell's admissible symbols (no cells: one leaf).  Raises
    :class:`BudgetExceeded` past ``budget`` admissible symbols offered to cells.
    """
    n = len(domains)
    assign = [0] * n
    if n == 0:
        yield assign, (None,)
        return
    last, assigned, i = n - 1, 0, 0
    untried, nxt = [()] * n, [0] * n     # per cell: admissible symbols, next to try
    while True:
        syms = domains[i]
        for read, banned in checks[i]:
            ban = banned.get(read(assign))
            if ban:
                syms = [s for s in syms if s not in ban]
        if syms:
            assigned += len(syms)
            if assigned > budget:
                raise BudgetExceeded(f"search exceeds {budget} cell assignments")
            if i < last:
                untried[i], nxt[i], assign[i] = syms, 1, syms[0]
                i += 1
                continue
            yield assign, syms
        # backtrack to the deepest cell with an untried symbol
        i -= 1
        while i >= 0 and nxt[i] == len(untried[i]):
            i -= 1
        if i < 0:
            return
        assign[i] = untried[i][nxt[i]]
        nxt[i] += 1
        i += 1


def _occurrence_checks(occurrences, n_cells: int):
    """``_search`` checks for forbidden (cells, symbols) occurrences, each
    attached to its last cell; occurrences sharing other cells share a lookup."""
    groups: list[dict] = [{} for _ in range(n_cells)]
    for idx, syms in occurrences:
        pairs = sorted(zip(idx, syms))
        last, last_sym = pairs.pop()
        cells, key = tuple(i for i, _ in pairs), tuple(s for _, s in pairs)
        banned = groups[last].setdefault(cells, {})
        banned.setdefault(key[0] if len(key) == 1 else key, set()).add(last_sym)
    return [tuple((itemgetter(*cells) if cells else lambda _: (), banned)
                  for cells, banned in g.items()) for g in groups]


@lru_cache(maxsize=8)
def _constraint_table(lat: FiniteLattice, spec: SftSpec):
    """Cell index by point and ``_search`` checks, built once per lattice and spec."""
    checks = _occurrence_checks(forbidden_occurrences(lat, spec), len(lat))
    return {(p.x, p.y): i for i, p in enumerate(lat)}, checks


def _domains(lat: FiniteLattice, spec: SftSpec, fixed):
    """``_search`` arguments for `lat`; a cell in `fixed` has one symbol."""
    index, checks = _constraint_table(lat, spec)
    domains = [tuple(range(spec.alphabet_size))] * len(lat)
    for (x, y), s in (fixed or {}).items():
        i = index.get((int(x), int(y)))
        if i is not None:
            domains[i] = (int(s),)
    return domains, checks


def count_bruteforce(
    lat: FiniteLattice,
    spec: SftSpec,
    budget: int = DEFAULT_BUDGET,
    fixed: dict | None = None,
) -> CountResult:
    """Exhaustive count of locally admissible assignments (reference oracle)."""
    free = len(lat) - (len(fixed) if fixed else 0)
    _check_budget(spec.alphabet_size, max(free, 0), budget)
    value = sum(len(leaves) for _, leaves in _search(*_domains(lat, spec, fixed)))
    return CountResult(value, "local", len(lat))


def enumerate_admissible(lat: FiniteLattice, spec: SftSpec, budget: int = DEFAULT_BUDGET):
    """Yield every admissible assignment as a symbol tuple in canonical order."""
    _check_budget(spec.alphabet_size, len(lat), budget)
    if len(lat) == 0:
        yield ()
        return
    for assign, leaves in _search(*_domains(lat, spec, None)):
        for sym in leaves:
            assign[-1] = sym
            yield tuple(assign)


def admissible_extension_exists(
    lat: FiniteLattice, spec: SftSpec, fixed: dict, budget: int = DEFAULT_BUDGET
) -> bool:
    """Is there an admissible assignment agreeing with `fixed`?  The search may
    assign at most `budget` cells, else it raises BudgetExceeded."""
    return any(_search(*_domains(lat, spec, fixed), budget=budget))


# ---------------------------------------------------------------------------
# 1-D transfer counts for single-axis constraints
# ---------------------------------------------------------------------------


def _axis_tables(spec: SftSpec):
    """(allowed symbols, allowed transition pairs) for a pure-horizontal spec."""
    banned_single = set()
    banned_pair = set()
    for pat in spec.forbidden:
        if len(pat.cells) == 1:
            banned_single.add(pat.cells[0][1])
        else:  # two cells at offsets (0,0), (1,0)
            a = dict(pat.cells)
            banned_pair.add((a[(0, 0)], a[(1, 0)]))
    symbols = [s for s in range(spec.alphabet_size) if s not in banned_single]
    pairs = {
        (a, b)
        for a in symbols
        for b in symbols
        if (a, b) not in banned_pair
    }
    return symbols, pairs


class _RunCounter:
    """Memoised exact counts of admissible strings of each length."""

    def __init__(self, spec: SftSpec):
        self.symbols, self.pairs = _axis_tables(spec)
        self._counts: list[int] = [1]          # length 0: empty string
        self._vector = {s: 1 for s in self.symbols}
        if self.symbols:
            self._counts.append(len(self.symbols))

    def count(self, length: int) -> int:
        if length > 0 and not self.symbols:
            return 0
        while len(self._counts) <= length:
            nxt = {
                b: sum(w for a, w in self._vector.items() if (a, b) in self.pairs)
                for b in self.symbols
            }
            self._vector = nxt
            self._counts.append(sum(nxt.values()))
        return self._counts[length]


def _run_multiset(lat: FiniteLattice, horizontal: bool) -> dict[int, int]:
    """Multiset of maximal run lengths along the given axis."""
    mask = lat._mask if horizontal else lat._mask.T
    _, _, lengths = _run_spans(mask)
    counts = np.bincount(lengths)
    return {int(m): int(counts[m]) for m in range(1, counts.size) if counts[m]}


def _axis_product_count(lat: FiniteLattice, spec: SftSpec) -> int:
    axis = spec.pure_axis
    work_spec = spec if axis == "horizontal" else spec.transpose()
    runs = _run_multiset(lat, horizontal=(axis == "horizontal"))
    rc = _RunCounter(work_spec)
    value = 1
    for length, mult in runs.items():
        value *= rc.count(length) ** mult
    return value


def _axis_product_log(lat: FiniteLattice, spec: SftSpec) -> float:
    axis = spec.pure_axis
    work_spec = spec if axis == "horizontal" else spec.transpose()
    runs = _run_multiset(lat, horizontal=(axis == "horizontal"))
    rc = _RunCounter(work_spec)
    total = 0.0
    for length, mult in runs.items():
        c = rc.count(length)
        if c == 0:
            return float("-inf")
        total += mult * math.log(c)
    return total


# ---------------------------------------------------------------------------
# broken-profile sweep for general 2x2-window specs
# ---------------------------------------------------------------------------


def _profile_checks(spec: SftSpec, height: int):
    """Constraint table for the cell-by-cell sweep.

    The sweep runs column-major over the bounding box; the frontier keeps the
    last `height + 1` processed symbols.  Each forbidden placement is attached
    to its last cell in sweep order and expressed through back-distances into
    the frontier.  Entries are grouped by (y within column, x == 0).
    """
    table: dict[tuple[int, bool], list] = {}
    for y in range(height):
        for x0 in (True, False):
            entries = []
            for pat in spec.forbidden:
                cells = [(p.x, p.y, s) for p, s in pat.cells]
                last = max(cells, key=lambda c: (c[0], c[1]))
                lx, ly, lsym = last
                back = []
                valid = True
                for cx, cy, s in cells:
                    if (cx, cy) == (lx, ly):
                        continue
                    ddx, ddy = lx - cx, ly - cy
                    yy = y - ddy
                    if not 0 <= yy < height:
                        valid = False
                        break
                    if x0 and ddx > 0:
                        valid = False
                        break
                    back.append((ddx * height + ddy, s))
                if valid:
                    entries.append((lsym, tuple(back)))
            table[(y, x0)] = entries
    return table


def _profile_sweep(lat: FiniteLattice, spec: SftSpec, log_domain: bool):
    """Run the broken-profile DP; returns either an int or (log, ok)."""
    (ox, oy), w, h = lat.bbox
    mask = lat._mask
    if h > w:
        mask = mask.T
        spec = spec.transpose()
        w, h = h, w
    if h + 1 > FRONTIER_CAP + 1:
        raise BudgetExceeded(
            f"frontier length {h} exceeds cap {FRONTIER_CAP} for a two-axis spec"
        )
    checks = _profile_checks(spec, h)
    depth = h + 1
    init = (ABSENT,) * depth
    states: dict[tuple, object] = {init: 1.0 if log_domain else 1}
    log_scale = 0.0
    symbols = tuple(range(spec.alphabet_size))
    for x in range(w):
        col = mask[:, x]
        for y in range(h):
            entries = checks[(y, x == 0)]
            nxt: dict[tuple, object] = {}
            choices = symbols if col[y] else (ABSENT,)
            for state, weight in states.items():
                for sym in choices:
                    bad = False
                    for lsym, back in entries:
                        if sym == lsym and all(state[-d] == s for d, s in back):
                            bad = True
                            break
                    if bad:
                        continue
                    ns = state[1:] + (sym,)
                    if ns in nxt:
                        nxt[ns] += weight
                    else:
                        nxt[ns] = weight
            states = nxt
            if not states:
                return (float("-inf"), True) if log_domain else 0
            if log_domain:
                total = math.fsum(states.values())
                if total > 1e12:
                    inv = 1.0 / total
                    states = {s: w_ * inv for s, w_ in states.items()}
                    log_scale += math.log(total)
    if log_domain:
        return log_scale + math.log(math.fsum(states.values())), True
    return sum(states.values())


def _require_window(spec: SftSpec) -> None:
    if not spec.window2x2:
        raise UnsupportedForbiddenShape(
            "profile DP requires every forbidden shape to fit a 2x2 window"
        )


def count_profile_dp(lat: FiniteLattice, spec: SftSpec) -> CountResult:
    """Exact count via run products (single-axis specs) or the profile sweep."""
    _require_window(spec)
    if len(lat) == 0:
        return CountResult(1, "local", 0)
    if spec.pure_axis is not None:
        value = _axis_product_count(lat, spec)
    else:
        value = _profile_sweep(lat, spec, log_domain=False)
    return CountResult(value, "local", len(lat))


def log_count(lat: FiniteLattice, spec: SftSpec) -> float:
    """Natural log of the local count, evaluated without bigint blowup."""
    _require_window(spec)
    if len(lat) == 0:
        return 0.0
    if spec.pure_axis is not None:
        return _axis_product_log(lat, spec)
    value, _ = _profile_sweep(lat, spec, log_domain=True)
    return value


# ---------------------------------------------------------------------------
# extendable counts
# ---------------------------------------------------------------------------


def count_extendable(
    lat: FiniteLattice,
    spec: SftSpec,
    margin: int,
    budget: int = DEFAULT_BUDGET,
) -> CountResult:
    """Count patterns on `lat` having an admissible extension to the dilation.

    margin = 0 coincides with the local count.  The enumeration runs over the
    core lattice (budgeted at N ** |lat|); each candidate is kept when a
    search finds one admissible completion of the dilation ring, and each such
    search may assign at most `budget` cells.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if margin == 0:
        base = count(lat, spec, budget=budget)
        return CountResult(base.value, "extendable", len(lat), margin=0)
    dilated = dilate(lat, margin)
    core_points = list(lat)
    kept = sum(
        admissible_extension_exists(dilated, spec, dict(zip(core_points, symbols)), budget=budget)
        for symbols in enumerate_admissible(lat, spec, budget=budget)
    )
    return CountResult(kept, "extendable", len(lat), margin=margin)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def count(
    lat: FiniteLattice,
    spec: SftSpec,
    mode: str = "local",
    margin: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> CountResult:
    """Route to the DP when eligible, else to the brute-force oracle.

    mode="extendable" delegates to :func:`count_extendable` with `margin`.
    """
    if mode == "extendable":
        return count_extendable(lat, spec, margin, budget=budget)
    if mode != "local":
        raise ValueError(f"unknown counting mode {mode!r}")
    if spec.window2x2:
        if spec.pure_axis is not None:
            return count_profile_dp(lat, spec)
        _, w, h = lat.bbox
        if min(w, h) <= FRONTIER_CAP:
            return count_profile_dp(lat, spec)
    return count_bruteforce(lat, spec, budget=budget)
