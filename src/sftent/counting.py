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
  Otherwise a broken-profile sweep orders the bounding box column-major, or
  row-major when it is taller than wide, so the frontier (at most
  ``FRONTIER_CAP`` cells) lies along its shorter side.  Its bans come from
  ``placements``, as the search's do, each attached to its last cell.  The
  live frontier states are one numpy array of base-N integer codes, the
  newest cell least significant, kept sorted by code beside one column of
  weights, Python ints (``dtype=object``) for exact counts.  A position of
  the box outside the lattice holds digit 0 and ends no placement; a step
  whose cell and frontier are all outside is skipped.  Codes are int64 while
  ``N ** (frontier + 1) < 2**63`` and Python ints beyond.
* ``log_count`` -- natural log of the count through the same sweep, with
  one float64 weight per state, renormalised once the total passes 1e12 so
  huge lattices never materialise huge integers.

Counts are exact arbitrary-precision integers; ``count`` dispatches between
the routes, and given a margin returns the extendable-count refinement.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .errors import BudgetExceeded, SymbolOutOfRange, UnsupportedForbiddenShape
from .lattice import FiniteLattice, _run_lengths, dilate
from .sft import CountResult, SftSpec, _placement_vectors, forbidden_occurrences

DEFAULT_BUDGET = 2 ** 24     # cap on N ** |free cells| for exhaustive routes
FRONTIER_CAP = 24            # cap on the broken-profile frontier length


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
    """Cell index by point, free domains and ``_search`` checks, built once per
    lattice and spec."""
    checks = _occurrence_checks(forbidden_occurrences(lat, spec), len(lat))
    index = {p: i for i, p in enumerate(lat)}
    return index, [tuple(range(spec.alphabet_size))] * len(lat), checks


def _domains(lat: FiniteLattice, spec: SftSpec, fixed):
    """``_search`` arguments for `lat`; a cell in `fixed` has one symbol, and
    a fixed symbol outside the alphabet raises SymbolOutOfRange."""
    index, free, checks = _constraint_table(lat, spec)
    domains = free.copy()
    for p, s in (fixed or {}).items():
        if not 0 <= s < spec.alphabet_size:
            raise SymbolOutOfRange(
                f"fixed symbol {s} outside alphabet 0..{spec.alphabet_size - 1}")
        i = index.get(p)          # Points, int pairs and numpy scalars hash alike
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
    free = len(lat) - sum(p in lat for p in fixed or ())
    _check_budget(spec.alphabet_size, free, budget)
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


def _axis_product(lat: FiniteLattice, spec: SftSpec, log_domain: bool):
    """Product over the maximal runs along the spec's axis of the number of
    admissible strings of each run's length; returns it exactly or its log."""
    banned, pairs = set(), set()
    for pat in spec.forbidden:     # one cell, or two along the axis, (0, 0) first
        if len(pat.cells) == 1:
            banned.add(pat.cells[0][1])
        else:
            pairs.add((pat.cells[0][1], pat.cells[1][1]))
    symbols = [s for s in range(spec.alphabet_size) if s not in banned]
    pairs = [(a, b) for a, b in pairs if a not in banned and b not in banned]
    # admissible strings of the current length, by last symbol: a string grows
    # by every symbol but those a pair bars after its last, O(N + pairs) a step
    length, ending = 1, dict.fromkeys(symbols, 1)
    runs = []
    for run, mult in _run_lengths(lat, spec.pure_axis).items():    # ascending
        while length < run:
            grown = dict.fromkeys(symbols, sum(ending.values()))
            for a, b in pairs:
                grown[b] -= ending[a]
            ending, length = grown, length + 1
        runs.append((sum(ending.values()), mult))
    if not log_domain:
        return math.prod(c ** mult for c, mult in runs)
    if any(c == 0 for c, _ in runs):
        return float("-inf")
    return sum(mult * math.log(c) for c, mult in runs)


# ---------------------------------------------------------------------------
# broken-profile sweep for general 2x2-window specs
# ---------------------------------------------------------------------------


def _sweep_bans(lat: FiniteLattice, spec: SftSpec):
    """The sweep's ban table, read from `placements`: the frontier length h
    (the bounding box's shorter side), each position's context (-1 off the
    lattice, else one bit per pattern shape ending there) and per context the
    bans (banned symbol, (back distance, symbol) per other cell).  Position
    ``x * h + y`` holds (x, y), relative to the box, when the box is at least
    as wide as tall (column-major), else ``y * h + x``.
    """
    (ox, oy), w, h = lat.bbox
    context = np.full(w * h, -1, dtype=np.int16)    # at most 15 shapes fit a 2x2 window
    major, h = (0, h) if w >= h else (1, w)
    local = lat.translate((-ox, -oy))                # small coordinates pack into keys
    def position(x, y):
        return (x, y)[major] * h + (x, y)[1 - major]
    context[position(*local.coords.T)] = 0
    shape_bit: dict = {}
    bans = []
    for pat in spec.forbidden:
        *others, (last, sym) = sorted(pat.cells, key=lambda c: (c[0][major], c[0][1 - major]))
        if pat.shape not in shape_bit:
            shape_bit[pat.shape] = bit = 1 << len(shape_bit)
            ends = _placement_vectors(pat.shape, local) + last
            context[position(*ends.T)] |= bit
        back = tuple((position(*last) - position(*p), s) for p, s in others)
        bans.append((shape_bit[pat.shape], sym, back))
    table = {code: [(sym, back) for bit, sym, back in bans if code & bit]    # codes in use
             for code in np.flatnonzero(np.bincount(context[context >= 0])).tolist()}
    return h, context, table


def _profile_sweep(lat: FiniteLattice, spec: SftSpec, log_domain: bool):
    """Run the broken-profile DP; returns the exact count or its natural log."""
    h, context, table = _sweep_bans(lat, spec)
    present = context >= 0
    n = spec.alphabet_size
    # a state is the last h + 1 cells' symbols as one base-n code, the newest
    # cell least significant; absent cells hold digit 0.  States stay sorted by
    # code, each with one weight: a Python int, or a float64 renormalised as
    # the total grows
    dtype = np.int64 if n ** (h + 1) < 2 ** 63 else object
    top = n ** h
    codes = np.zeros(1, dtype=dtype)
    weights = np.ones(1, dtype=np.float64 if log_domain else object)
    log_scale = 0.0
    # where a cell and the h + 1 cells the state holds are all absent, the
    # state is the single zero code and the step changes nothing
    live = present.copy()
    for k in range(1, h + 2):
        live[k:] |= present[:-k]
    for t in np.flatnonzero(live).tolist():
        if present[t]:
            ok = np.ones((len(codes), n), dtype=bool)
            digits: dict = {}
            for sym, back in table[context[t]]:
                hit = np.ones(len(codes), dtype=bool)    # a single-cell ban hits all
                for d, s in back:
                    if d not in digits:
                        digits[d] = codes // n ** (d - 1) % n
                    hit &= digits[d] == s
                ok[:, sym] &= ~hit
            rows, syms = np.nonzero(ok)   # in state order, then symbol order
            del ok, digits                # free each intermediate once consumed
        else:
            rows, syms = np.arange(len(codes)), 0
        if not len(rows):
            return float("-inf") if log_domain else 0
        # the oldest digit leaves the frontier; only a present cell there can
        # make two states meet.  Otherwise the successors, in state order then
        # symbol order, are already sorted
        merging = t > h and present[t - h - 1]
        dest = (codes % top if merging else codes)[rows] * n + syms
        del codes, syms
        if not merging:
            codes, weights = dest, weights[rows]
        else:
            # group successors by code, at most n sources each, added one at a
            # time in state order
            order = np.argsort(dest, kind="stable")
            src = rows[order]
            dest = dest[order]
            del rows, order
            starts = np.flatnonzero(np.concatenate(([True], dest[1:] != dest[:-1])))
            ends = np.append(starts[1:], len(dest))
            codes, merged = dest[starts], weights[src[starts]]
            del dest
            for k in range(1, n):
                more = starts + k < ends
                merged[more] += weights[src[starts[more] + k]]
            del weights, src
            weights = merged
        # the pairwise sum is far within 0.1% of fsum: fsum runs only where it may pass 1e12
        if log_domain and weights.sum() > 0.999e12:
            total = math.fsum(weights.tolist())
            if total > 1e12:
                weights *= 1.0 / total
                log_scale += math.log(total)
    if log_domain:
        return log_scale + math.log(math.fsum(weights.tolist()))
    return sum(weights.tolist())


def _local_route(lat: FiniteLattice, spec: SftSpec):
    """The local-count engine for `lat` (None for the empty lattice).  Raises
    UnsupportedForbiddenShape past the 2x2 window and BudgetExceeded when a
    two-axis sweep's frontier, the shorter bounding-box side, passes the cap."""
    if not spec.window2x2:
        raise UnsupportedForbiddenShape(
            "profile DP requires every forbidden shape to fit a 2x2 window"
        )
    if len(lat) == 0:
        return None
    if spec.pure_axis is not None:
        return _axis_product
    _, w, h = lat.bbox
    if min(w, h) > FRONTIER_CAP:
        raise BudgetExceeded(
            f"frontier length {min(w, h)} exceeds cap {FRONTIER_CAP} for a two-axis spec"
        )
    return _profile_sweep


def count_profile_dp(lat: FiniteLattice, spec: SftSpec) -> CountResult:
    """Exact count via run products (single-axis specs) or the profile sweep."""
    route = _local_route(lat, spec)
    value = 1 if route is None else route(lat, spec, log_domain=False)
    return CountResult(value, "local", len(lat))


def log_count(lat: FiniteLattice, spec: SftSpec) -> float:
    """Natural log of the local count, evaluated without bigint blowup."""
    route = _local_route(lat, spec)
    return 0.0 if route is None else route(lat, spec, log_domain=True)


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
    margin: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> CountResult:
    """The local count when `margin` is None, routed to the DP when eligible,
    else to the brute-force oracle; given an integer margin (0 included), the
    extendable count of :func:`count_extendable`.
    """
    if margin is not None:
        return count_extendable(lat, spec, margin, budget=budget)
    try:      # the DP refuses shapes past a 2x2 window and frontiers past the cap
        return count_profile_dp(lat, spec)
    except (UnsupportedForbiddenShape, BudgetExceeded):
        return count_bruteforce(lat, spec, budget=budget)
