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
  Otherwise a broken-profile sweep runs cell by cell over the bounding box,
  with the frontier along its shorter side (at most ``FRONTIER_CAP`` cells).
  The live frontier states are one numpy array of base-N integer codes, the
  newest cell least significant.  Whether a cell is absent (in the bounding
  box but not the lattice) depends only on the lattice, so an absent cell
  holds digit 0 and every constraint reaching it is dropped in advance.
  Codes are int64 while ``N ** (frontier + 1) < 2**63`` and Python ints
  (``dtype=object``) beyond.  Exact weights are int64 limbs of
  ``62 - N.bit_length()`` bits, one more whenever the count bound
  ``N ** cells <= 2 ** (cells * ceil(log2 N))`` needs it, normalised by one
  carry pass per cell.
* ``log_count`` -- natural log of the count through the same sweep, with
  one float64 weight per state, renormalised once the total passes 1e12 so
  huge lattices never materialise huge integers.

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
    """``_search`` arguments for `lat`; a cell in `fixed` has one symbol."""
    index, free, checks = _constraint_table(lat, spec)
    domains = free.copy()
    for p, s in (fixed or {}).items():
        i = index.get(p)          # Points and int pairs hash alike
        if i is None:
            i = index.get((int(p[0]), int(p[1])))
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


def _axis_product(lat: FiniteLattice, spec: SftSpec, log_domain: bool):
    """Product of 1-D run counts; returns the exact count or its natural log."""
    axis = spec.pure_axis
    work_spec = spec if axis == "horizontal" else spec.transpose()
    rc = _RunCounter(work_spec)
    runs = [(rc.count(length), mult)
            for length, mult in _run_multiset(lat, horizontal=(axis == "horizontal")).items()]
    if not log_domain:
        return math.prod(c ** mult for c, mult in runs)
    if any(c == 0 for c, _ in runs):
        return float("-inf")
    return sum(mult * math.log(c) for c, mult in runs)


# ---------------------------------------------------------------------------
# broken-profile sweep for general 2x2-window specs
# ---------------------------------------------------------------------------


def _profile_patterns(spec: SftSpec):
    """Each forbidden pattern as (last symbol, back cells): its last cell in the
    column-major sweep order, and every other cell as (dx, dy, symbol) offsets
    back from it."""
    out = []
    for pat in spec.forbidden:
        cells = sorted(((p.x, p.y), s) for p, s in pat.cells)
        (lx, ly), lsym = cells.pop()
        out.append((lsym, tuple((lx - x, ly - y, s) for (x, y), s in cells)))
    return out


def _cell_bans(patterns, mask, x: int, y: int, n: int):
    """Per symbol at present cell (x, y): None when a single-cell pattern bans
    it outright, else the (back distance, symbol) tuples that ban it.  A
    pattern is dropped when one of its back cells is absent from `mask`."""
    h = mask.shape[0]
    bans: list = [[] for _ in range(n)]
    for lsym, back in patterns:
        if bans[lsym] is None:
            continue
        if not back:
            bans[lsym] = None
        elif all(x >= dx and 0 <= y - dy < h and mask[y - dy, x - dx] for dx, dy, _ in back):
            bans[lsym].append(tuple((dx * h + dy, s) for dx, dy, s in back))
    return bans


def _profile_sweep(lat: FiniteLattice, spec: SftSpec, log_domain: bool):
    """Run the broken-profile DP; returns the exact count or its natural log."""
    mask = lat._mask
    h, w = mask.shape
    if h > w:
        mask, spec = mask.T, spec.transpose()
        h, w = w, h
    if h > FRONTIER_CAP:
        raise BudgetExceeded(
            f"frontier length {h} exceeds cap {FRONTIER_CAP} for a two-axis spec"
        )
    n = spec.alphabet_size
    patterns = _profile_patterns(spec)
    present = mask.T.ravel()              # sweep order: cell x * h + y
    # a state is the last h + 1 cells' symbols as one base-n code, the newest
    # cell least significant; absent cells hold digit 0
    dtype = np.int64 if n ** (h + 1) < 2 ** 63 else object
    top = n ** h
    codes = np.zeros(1, dtype=dtype)
    # exact weights: int64 limbs in base 2**bits_per_limb, one more whenever the
    # bound n**present <= 2**bits needs it, so no carry leaves the top limb; log
    # weights: one float64 column, renormalised as it grows
    bits_per_limb = 62 - n.bit_length()
    limb_mask = (1 << bits_per_limb) - 1
    weights = np.ones((1, 1), dtype=np.float64 if log_domain else np.int64)
    bits, log_scale = 0, 0.0
    for t in range(w * h):
        if present[t]:
            if not log_domain:
                bits += (n - 1).bit_length()
                if bits >= weights.shape[1] * bits_per_limb:
                    weights = np.hstack([weights, np.zeros((len(codes), 1), np.int64)])
            ok = np.ones((len(codes), n), dtype=bool)
            digits: dict = {}
            for sym, bans in enumerate(_cell_bans(patterns, mask, t // h, t % h, n)):
                if bans is None:
                    ok[:, sym] = False
                for back in bans or ():
                    hit = True
                    for d, s in back:
                        if d not in digits:
                            digits[d] = codes // n ** (d - 1) % n
                        hit = hit & (digits[d] == s)
                    ok[:, sym] &= ~hit
            rows, syms = np.nonzero(ok)   # in state order, then symbol order
        else:
            rows, syms = np.arange(len(codes)), 0
        if not len(rows):
            return float("-inf") if log_domain else 0
        # the oldest digit leaves the frontier; only a present cell there can
        # make two states meet
        merging = t > h and present[t - h - 1]
        dest = (codes % top if merging else codes)[rows] * n + syms
        if not merging:
            codes, weights = dest, weights.take(rows, axis=0)
        else:
            # group successors by code, at most n sources each, added in state
            # order; states keep the order of their first source
            order = np.argsort(dest, kind="stable")
            dest, src = dest[order], rows[order]
            starts = np.flatnonzero(np.concatenate(([True], dest[1:] != dest[:-1])))
            ends = np.append(starts[1:], len(dest))
            merged = weights.take(src[starts], axis=0)
            for k in range(1, n):
                more = (starts + k < ends)[:, None]
                merged += weights.take(src[np.minimum(starts + k, len(dest) - 1)], axis=0) * more
            keep = np.argsort(order[starts])
            codes, weights = dest[starts[keep]], merged.take(keep, axis=0)
        if log_domain:
            total = math.fsum(weights[:, 0].tolist())
            if total > 1e12:
                weights *= 1.0 / total
                log_scale += math.log(total)
        elif weights.shape[1] > 1:
            # one carry pass leaves every limb below 2**bits_per_limb + n
            carry = weights[:, :-1] >> bits_per_limb
            weights &= limb_mask
            weights[:, 1:] += carry
    if log_domain:
        return log_scale + math.log(math.fsum(weights[:, 0].tolist()))
    return sum(sum(weights[:, i].tolist()) << (bits_per_limb * i) for i in range(weights.shape[1]))


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
    route = _axis_product if spec.pure_axis is not None else _profile_sweep
    return CountResult(route(lat, spec, log_domain=False), "local", len(lat))


def log_count(lat: FiniteLattice, spec: SftSpec) -> float:
    """Natural log of the local count, evaluated without bigint blowup."""
    _require_window(spec)
    if len(lat) == 0:
        return 0.0
    route = _axis_product if spec.pure_axis is not None else _profile_sweep
    return route(lat, spec, log_domain=True)


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
