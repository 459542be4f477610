"""Exact pattern counting engines.

Three routes compute the number of locally admissible assignments on a finite
lattice:

* ``count_bruteforce`` -- the exhaustive reference oracle, budgeted at
  ``N ** |free cells|``.  A block search (``_block_search``) holds up to
  ``_BLOCK`` = 1,024 partial assignments as the rows of a numpy array, one
  column per cell in canonical order, and extends a whole block by one cell
  per step: each forbidden occurrence is checked at its last cell, with one
  table lookup per tuple of other cells (a comparison with each banned key
  past ``_DENSE`` = 4,096 table rows).  The children, in (row, symbol)
  order, are split into blocks pushed in reverse onto an explicit stack, so
  the search runs depth-first in lexicographic order.  Each cell keeps at
  most one split child of ``N * _BLOCK`` rows waiting, one byte per cell
  (N <= 256), so memory stays under ``N * _BLOCK * |L| ** 2`` bytes
  whatever the count.  The last cell is counted, never built, and block
  counts are summed as Python ints.  The same blocks enumerate the
  admissible patterns (``enumerate_admissible``) and back the
  multiplicative brute force.  Only "does an extension exist" runs
  elsewhere: ``_search`` steps one symbol at a time, depth first, and stops
  at the first witness, within its per-symbol budget.
* ``count_profile_dp`` -- a frontier dynamic program for any finite forbidden
  set.  When each forbidden pattern is one cell or two adjacent cells along
  one axis the count is a product of 1-D transfer counts over maximal runs,
  which keeps lattices with millions of cells exact.  Otherwise a
  broken-profile sweep takes the bans from ``placements``, each attached to
  its last cell, and its state holds exactly what they read: ``depth``
  positions, the longest back distance of a placed ban (at least 1).  It
  orders the cells column-major or row-major, whichever needs the smaller
  depth, on a tie the shorter frontier.  It steps through the lattice's own
  rows and columns: empty rows no placed shape spans close to one, a
  stretch of empty columns shortens to the run that flushes a state.  The
  live states are one numpy array of base-N codes (int64 while
  ``N ** depth < 2**63``, else Python ints), the newest cell least
  significant, sorted beside one column of weights.  A position outside
  the lattice holds digit 0.  Each step (``_sweep_step``) yields the
  successor codes and a plan that carries weights to them; one column of
  steps is cached by row, keyed exactly by context, merging flag and
  incoming codes.  The sweep raises BudgetExceeded when its positions, or
  a step's live states times N, times the 64-bit words of one code pass
  ``DEFAULT_BUDGET`` (which also bounds the cache's words), and
  UnsupportedForbiddenShape past 63 placed shapes (one context bit each).
* ``log_count`` -- natural log of the count through the same sweep, with
  one float64 weight per state, renormalised once the total passes 1e12 so
  huge lattices never materialise huge integers.

Counts are exact arbitrary-precision integers; ``count`` dispatches between
the routes, falling back to brute force when the sweep refuses, and given a
margin returns the extendable-count refinement.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from operator import itemgetter

import numpy as np

from .errors import BudgetExceeded, SymbolOutOfRange, UnsupportedForbiddenShape
from .lattice import FiniteLattice, _cells, _integer, _run_lengths, dilate
from .sft import CountResult, SftSpec, _placement_runs, forbidden_occurrences

DEFAULT_BUDGET = 2 ** 24     # cap on N ** |free cells| and on the sweep's code words


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

_BLOCK = 1024     # rows of partial assignments the block search extends per step
_DENSE = 4096     # base-N codes a check's lookup table may cover


def _check_budget(alphabet_size: int, cells: int, budget: int) -> None:
    # N >= 2, so N**cells >= 2**cells > budget once cells >= budget.bit_length()
    if cells >= int(budget).bit_length() or alphabet_size ** cells > budget:
        raise BudgetExceeded(f"{alphabet_size}**{cells} assignments exceed budget {budget}")


def _ban_groups(occurrences, n_cells: int):
    """Forbidden (cells, symbols) occurrences, each attached to its last cell:
    per cell, ``{other cells: {their symbols: banned symbols}}``."""
    groups: list[dict] = [{} for _ in range(n_cells)]
    for idx, syms in occurrences:
        pairs = sorted(zip(idx, syms))
        last, last_sym = pairs.pop()
        cells, key = tuple(i for i, _ in pairs), tuple(s for _, s in pairs)
        groups[last].setdefault(cells, {}).setdefault(key, set()).add(last_sym)
    return groups


def _occurrence_checks(occurrences, n_cells: int):
    """``_search`` checks: per cell, ``(read, banned)`` per tuple of other
    cells, ``banned`` keyed by what ``read(assign)`` returns."""
    return [tuple((itemgetter(*cells) if cells else lambda _: (),
                   {k[0] if len(k) == 1 else k: v for k, v in banned.items()})
                  for cells, banned in g.items())
            for g in _ban_groups(occurrences, n_cells)]


def _block_checks(occurrences, n_cells: int, n: int):
    """``_block_search`` arguments for `n` symbols: the free symbols, an
    ``(n_cells, n)`` mask with one-cell bans cleared, and per cell one check
    per tuple of other cells, mapping a block to its ``(rows, n)`` mask of
    the symbols allowed there.  While the other cells have at most
    ``_DENSE`` symbol combinations a check reads a table row by their base-N
    code, else it compares them with each banned key."""
    free = np.ones((n_cells, n), dtype=bool)
    checks: list[list] = [[] for _ in range(n_cells)]
    for cell, g in enumerate(_ban_groups(occurrences, n_cells)):
        for cells, banned in g.items():
            if not cells:
                free[cell, list(banned[()])] = False
            elif n ** len(cells) <= _DENSE:
                allow = np.ones((n,) * len(cells) + (n,), dtype=bool)
                for key, syms in banned.items():
                    allow[key][list(syms)] = False
                checks[cell].append(partial(_lookup, cells, n, allow.reshape(-1, n)))
            else:
                keys = np.array(list(banned), dtype=np.int64)[:, None, :]
                bans = np.zeros((len(keys), n), dtype=bool)
                for row, syms in enumerate(banned.values()):
                    bans[row, list(syms)] = True
                checks[cell].append(partial(_compare, list(cells), keys, bans))
    return free, checks


def _lookup(cells, n: int, allow, block):
    """The rows of `allow` at the base-N code of `cells` in each row of
    `block`, the first cell most significant."""
    code = block[:, cells[0]]
    if len(cells) > 1:
        code = code.astype(np.intp)
        for c in cells[1:]:
            code *= n
            code += block[:, c]
    return allow.take(code, axis=0)


def _compare(cells, keys, bans, block):
    """Per row of `block`, the symbols that no key its `cells` hold bans;
    key j bans the symbols of row j of `bans`."""
    return ~((block[:, cells] == keys).all(2).T @ bans)


def _extend(block, i: int, allowed):
    """The rows of `block` with cell i set: each row once per symbol
    `allowed` there, in (row, symbol) order."""
    rows, syms = np.divmod(allowed.ravel().nonzero()[0], allowed.shape[1])
    child = block.take(rows, axis=0)
    child[:, i] = syms
    return child


def _block_search(free, checks):
    """Yield ``(block, leaves)`` over the admissible assignments of all cells
    but the last, in lexicographic order: `block` holds up to ``_BLOCK`` of
    them as rows, one column per cell (the last one unset), and `leaves` the
    last cell's allowed symbols per row (no cells: one leaf).  Cell i takes
    the symbols of ``free[i]`` that every check in ``checks[i]`` allows.
    Pending blocks wait on an explicit stack, each cell's from one child of
    at most ``N * _BLOCK`` rows, so memory does not grow with the count."""
    n_cells, n = free.shape
    root = np.zeros((1, n_cells), dtype=np.min_scalar_type(n - 1))
    if n_cells == 0:
        yield root, np.ones((1, 1), dtype=bool)
        return
    stack = [(0, root)]
    while stack:
        i, block = stack.pop()
        allowed = np.repeat(free[i:i + 1], len(block), axis=0)
        for check in checks[i]:
            allowed &= check(block)
        if i == n_cells - 1:
            yield block, allowed
            continue
        child = _extend(block, i, allowed)
        stack.extend([(i + 1, child[k:k + _BLOCK])
                      for k in range(0, len(child), _BLOCK)][::-1])


def _count_blocks(free, checks) -> int:
    """Number of admissible assignments, summed exactly over the blocks."""
    return sum(int(np.count_nonzero(leaves)) for _, leaves in _block_search(free, checks))


def _search(domains, checks, budget) -> bool:
    """Does an admissible assignment exist?  Depth-first on an explicit stack:
    cell i takes symbols from ``domains[i]`` except ``banned[read(assign)]``
    for each ``(read, banned)`` in ``checks[i]``.  Raises BudgetExceeded past
    ``budget`` admissible symbols offered to cells."""
    n = len(domains)
    if n == 0:
        return True
    assign = [0] * n
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
            if i == last:
                return True
            untried[i], nxt[i], assign[i] = syms, 1, syms[0]
            i += 1
            continue
        # backtrack to the deepest cell with an untried symbol
        i -= 1
        while i >= 0 and nxt[i] == len(untried[i]):
            i -= 1
        if i < 0:
            return False
        assign[i] = untried[i][nxt[i]]
        nxt[i] += 1
        i += 1


@lru_cache(maxsize=8)
def _constraint_table(lat: FiniteLattice, spec: SftSpec, blocks: bool):
    """Cell index by point, free domains and checks, of the block search
    (`blocks`) or of ``_search``, built once per lattice and spec."""
    occurrences = forbidden_occurrences(lat, spec)
    index = {p: i for i, p in enumerate(lat)}
    if blocks:
        return index, *_block_checks(occurrences, len(lat), spec.alphabet_size)
    # safe symbols first: no check bans one, so with one the search extends
    # admissible fixed cells without backtracking
    safe = spec.safe_symbols
    free = [safe + tuple(s for s in range(spec.alphabet_size) if s not in safe)] * len(lat)
    return index, free, _occurrence_checks(occurrences, len(lat))


def _domains(lat: FiniteLattice, spec: SftSpec, fixed, blocks: bool):
    """Free domains and checks for `lat`, of the block search (`blocks`) or
    of ``_search``; a cell in `fixed` keeps one symbol.  A fixed symbol must
    be an integer (else ValueError) inside the alphabet (else SymbolOutOfRange)."""
    index, free, checks = _constraint_table(lat, spec, blocks)
    domains = free.copy()
    for p, s in (fixed or {}).items():
        s = _integer(s)
        if not 0 <= s < spec.alphabet_size:
            raise SymbolOutOfRange(
                f"fixed symbol {s} outside alphabet 0..{spec.alphabet_size - 1}")
        i = index.get(p)          # Points, int pairs and numpy scalars hash alike
        if i is not None:
            if blocks:
                domains[i] &= np.arange(spec.alphabet_size) == s
            else:
                domains[i] = (s,)
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
    return CountResult(_count_blocks(*_domains(lat, spec, fixed, blocks=True)), len(lat))


def enumerate_admissible(lat: FiniteLattice, spec: SftSpec, budget: int = DEFAULT_BUDGET):
    """Yield every admissible assignment as a symbol tuple in canonical order."""
    _check_budget(spec.alphabet_size, len(lat), budget)
    if len(lat) == 0:
        yield ()
        return
    for block, leaves in _block_search(*_domains(lat, spec, None, blocks=True)):
        yield from map(tuple, _extend(block, len(lat) - 1, leaves).tolist())


def admissible_extension_exists(
    lat: FiniteLattice, spec: SftSpec, fixed: dict, budget: int = DEFAULT_BUDGET
) -> bool:
    """Is there an admissible assignment agreeing with `fixed`?  The search may
    assign at most `budget` cells, else it raises BudgetExceeded."""
    return _search(*_domains(lat, spec, fixed, blocks=False), budget)


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
    return sum((mult * math.log(c) for c, mult in runs), 0.0)


# ---------------------------------------------------------------------------
# broken-profile sweep for general specs
# ---------------------------------------------------------------------------


def _sweep_bans(lat: FiniteLattice, spec: SftSpec):
    """The sweep's layout, read from `placements`: the state depth, the dtype
    and 64-bit words of one code, each position's context (-1 off the lattice,
    else one bit per placed pattern shape ending there), per context the bans
    (banned symbol, (back distance, symbol) per other cell) and the frontier
    length h.  Position ``column * h + row`` holds a cell; the depth is the
    longest back distance of a placed ban, at least 1, and the orientation
    the one that needs the smaller depth, on a tie the smaller h.  The layout
    is refused before it is allocated when its positions times a code's
    words pass the budget.
    """
    n = spec.alphabet_size
    runs = {}                 # shape -> placement runs
    for pat in spec.forbidden:
        if pat.shape not in runs:
            runs[pat.shape] = _placement_runs(pat.shape, lat)
    bit = {shape: 1 << i for i, shape in enumerate(s for s, r in runs.items() if len(r))}
    if len(bit) > 63:
        raise UnsupportedForbiddenShape(
            f"{len(bit)} placed forbidden shapes exceed the sweep's 63 context bits")

    def orient(major):
        """Depth, frontier length, major axis, rows, last cell per shape and bans."""
        # the lattice's rows (sorted, with repeats); a gap no placed shape
        # spans closes to one row.  Differences are exact in uint64
        ys = (lat._runs if major == 0 else lat._truns)[:, 0]
        reach = max([0] + [pat.extent[1 - major] for pat in spec.forbidden if pat.shape in bit])
        gaps = np.diff(ys.view(np.uint64))
        rows = np.append(np.uint64(0), np.where(gaps > reach, 1, gaps).cumsum())
        h = int(rows[-1]) + 1
        last, bans = {}, []
        for pat in spec.forbidden:
            if pat.shape in bit:
                *others, (end, sym) = sorted(pat.cells, key=lambda c: (c[0][major], c[0][1 - major]))
                last[pat.shape] = end
                back = tuple(((end[major] - p[major]) * h + end[1 - major] - p[1 - major], s)
                             for p, s in others)
                bans.append((bit[pat.shape], sym, back))
        return max([1] + [d for _, _, back in bans for d, _ in back]), h, major, (ys, rows), last, bans

    depth, h, major, (ys, rows), last, bans = min(orient(0), orient(1), key=itemgetter(0, 1))
    # int64 codes while n ** depth < 2**63 (depth < 63 keeps the power small)
    dtype = np.int64 if depth < 63 and n ** depth < 2 ** 63 else object
    words = 1 if dtype is np.int64 else -(-depth * (n - 1).bit_length() // 64)
    cols = (lat._truns if major == 0 else lat._runs)[:, 0]    # sorted, with repeats
    # column gaps and their sum are exact in uint64; ceil(depth / h) empty
    # columns flush a state, so a longer gap is capped there
    gaps = np.minimum(np.diff(cols.view(np.uint64)), -(-depth // h) + 1)
    column = np.append(np.uint64(0), gaps.cumsum())
    positions = (int(column[-1]) + 1) * h
    if positions * words > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"{positions} sweep positions * {words} code words exceed budget {DEFAULT_BUDGET}")
    column, rows = column.astype(np.int64), rows.astype(np.int64)

    def position(cells):
        return (column[np.searchsorted(cols, cells[:, major])] * h
                + rows[np.searchsorted(ys, cells[:, 1 - major])])
    context = np.full(positions, -1, dtype=np.int64)
    context[position(lat.coords)] = 0
    for shape, b in bit.items():     # cells, unlike runs, one shape at a time
        context[position(np.column_stack(_cells(runs[shape])) + last[shape])] |= b
    context = context.tolist()
    table = {code: [(sym, back) for b, sym, back in bans if code & b]    # codes in use
             for code in set(context) - {-1}}
    return depth, dtype, words, context, table, h


def _sweep_step(codes, here: int, merging: bool, n: int, top: int, table):
    """One sweep step from the sorted state codes `codes` at a position of
    context `here` (-1 off the lattice); `merging` when the state's oldest
    digit, ``top`` its place value, is a present cell.  Returns the sorted
    successor codes and the plan that carries weights to them: each
    successor's first source, and per k = 1..n-1 the successors with a k-th
    source and that source, int32."""
    if here >= 0:
        ok = np.ones((len(codes), n), dtype=bool)
        digits: dict = {}
        for sym, back in table[here]:
            hit = np.ones(len(codes), dtype=bool)    # a single-cell ban hits all
            for d, s in back:
                if d not in digits:
                    digits[d] = codes // n ** (d - 1) % n
                hit &= digits[d] == s
            ok[:, sym] &= ~hit
        rows, syms = np.nonzero(ok)   # in state order, then symbol order
        del ok, digits                # free each intermediate once consumed
        rows = rows.astype(np.int32)
    else:
        rows, syms = np.arange(len(codes), dtype=np.int32), 0
    # the oldest digit leaves the state; only a present cell there can make
    # two states meet.  Otherwise the successors, in state order then symbol
    # order, are already sorted
    dest = (codes % top if merging else codes)[rows] * n + syms
    del syms
    if not merging or not len(dest):
        return dest, (rows, ())
    # group successors by code, at most n sources each, in state order
    order = np.argsort(dest, kind="stable")
    src = rows[order]
    dest = dest[order]
    del rows, order
    starts = np.flatnonzero(np.concatenate(([True], dest[1:] != dest[:-1])))
    ends = np.append(starts[1:], len(dest))
    terms = []
    for k in range(1, n):       # a group with k + 1 sources also has k
        at = np.flatnonzero(starts + k < ends)
        if not len(at):
            break
        terms.append((at.astype(np.int32), src[starts[at] + k]))
    return dest[starts], (src[starts], terms)


def _plan_words(codes, dest, plan, words: int) -> int:
    """64-bit words a cached step holds: its key and successor codes, and its
    plan's int32 indices."""
    first, terms = plan
    indices = len(first) + sum(2 * len(at) for at, _ in terms)
    return (len(codes) + len(dest)) * words + -(-indices // 2)


def _profile_sweep(lat: FiniteLattice, spec: SftSpec, log_domain: bool):
    """Run the broken-profile DP; returns the exact count or its natural log."""
    n = spec.alphabet_size
    # a state is the last `depth` positions' symbols as one base-n code, the
    # newest cell least significant, absent cells 0.  States stay sorted by
    # code, each with one weight: a Python int, or a renormalised float64
    depth, dtype, words, context, table, h = _sweep_bans(lat, spec)
    top = n ** (depth - 1)
    codes = np.zeros(1, dtype=dtype)
    weights = np.ones(1, dtype=np.float64 if log_domain else object)
    log_scale = 0.0
    # one column of steps, by row: a step repeats the one a column back when
    # its context, merging flag and incoming codes (compared exactly) do.
    # The cached words stay within the budget; past it a step is not stored
    cache, held = [None] * h, 0
    for t, here in enumerate(context):
        # candidate successors times their words bound every array this step allocates
        if here >= 0 and len(codes) * n * words > DEFAULT_BUDGET:
            raise BudgetExceeded(
                f"{len(codes)} states * {n} * {words} code words exceed budget {DEFAULT_BUDGET}")
        merging = t >= depth and context[t - depth] >= 0
        entry = cache[t % h]
        if (entry is not None and entry[0] == here and entry[1] == merging
                and (entry[2] is codes
                     or len(entry[2]) == len(codes) and np.array_equal(entry[2], codes))):
            dest, plan = entry[3], entry[4]
        else:
            if entry is not None:     # freed before the step allocates
                cache[t % h], held, entry = None, held - entry[5], None
            dest, plan = _sweep_step(codes, here, merging, n, top, table)
            size = _plan_words(codes, dest, plan, words)
            if held + size <= DEFAULT_BUDGET:
                cache[t % h], held = (here, merging, codes, dest, plan, size), held + size
        if not len(dest):
            return float("-inf") if log_domain else 0
        first, terms = plan
        merged = weights[first]
        for at, src in terms:        # added one source at a time, in state order
            merged[at] += weights[src]
        codes, weights = dest, merged
        # the pairwise sum is far within 0.1% of fsum: fsum runs only where it may pass 1e12
        if log_domain and weights.sum() > 0.999e12:
            total = math.fsum(weights.tolist())
            if total > 1e12:
                weights *= 1.0 / total
                log_scale += math.log(total)
    if log_domain:
        return log_scale + math.log(math.fsum(weights.tolist()))
    return sum(weights.tolist())


def _local_route(spec: SftSpec):
    """The axis product for single-axis specs, else the profile sweep."""
    return _axis_product if spec.pure_axis is not None else _profile_sweep


def count_profile_dp(lat: FiniteLattice, spec: SftSpec) -> CountResult:
    """Exact count via run products (single-axis specs) or the profile sweep."""
    return CountResult(_local_route(spec)(lat, spec, log_domain=False), len(lat))


def log_count(lat: FiniteLattice, spec: SftSpec) -> float:
    """Natural log of the local count, evaluated without bigint blowup."""
    return _local_route(spec)(lat, spec, log_domain=True)


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

    That is the local count when margin = 0 or a safe symbol pads the ring.
    Otherwise each admissible pattern on `lat` (budgeted at N ** |lat|) is
    kept when a search, assigning at most `budget` cells, completes the ring.
    """
    margin = _integer(margin)
    if margin < 0:
        raise ValueError("margin must be >= 0")
    dilated = dilate(lat, margin)     # raises ValueError past the coordinate range
    if margin == 0 or spec.safe_symbols:
        return CountResult(count(lat, spec, budget=budget).value, len(lat), margin=margin)
    core_points = list(lat)
    kept = sum(
        admissible_extension_exists(dilated, spec, dict(zip(core_points, symbols)), budget=budget)
        for symbols in enumerate_admissible(lat, spec, budget=budget)
    )
    return CountResult(kept, len(lat), margin=margin)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def count(
    lat: FiniteLattice,
    spec: SftSpec,
    margin: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> CountResult:
    """The local count when `margin` is None, from the DP or, where it
    refuses, the brute-force oracle; given an integer margin (0 included), the
    extendable count of :func:`count_extendable`.
    """
    if margin is not None:
        return count_extendable(lat, spec, margin, budget=budget)
    try:      # the sweep refuses past 63 placed shapes and past its budget
        return count_profile_dp(lat, spec)
    except (UnsupportedForbiddenShape, BudgetExceeded) as refusal:
        try:
            return count_bruteforce(lat, spec, budget=budget)
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"profile sweep: {refusal}; brute force: {exc}") from exc
