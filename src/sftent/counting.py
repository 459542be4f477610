"""Exact pattern counting engines.

Three routes compute the number of locally admissible assignments on a finite
lattice:

* ``count_bruteforce`` -- the exhaustive reference oracle, budgeted at
  ``N ** |free cells|``.  A block search (``_block_search``) holds up to
  ``_BLOCK`` = 4,096 partial assignments as the rows of a numpy array, one
  column per cell in canonical order, and extends a whole block by one cell
  per step: a forbidden shape's placement is checked at its last cell by
  one lookup in the shape's table (a comparison with each banned key past
  ``_DENSE`` = 4,096 table rows).  The children, in (row, symbol) order,
  are split into blocks: the search goes on with the first and pushes the
  rest in reverse onto an explicit stack, so it runs depth-first in
  lexicographic order.  A cell that no check at a later cell reads (the
  last one always) is counted, never built: each row carries a weight,
  multiplied there by the row's number of allowed symbols (int64 while
  ``N ** |L| < 2**63``, else Python ints), and block sums are added as
  Python ints.  Each cell keeps at most ``N * _BLOCK`` rows alive, its
  child or the blocks of it that wait, one byte per cell (N <= 256) plus an
  8-byte weight, so memory stays under ``N * _BLOCK * |L| * (|L| + 8)``
  bytes whatever the count.  The same search, with no cell counted,
  enumerates the admissible patterns (``enumerate_admissible``), and it
  counts the multiplicative brute force.  "Does an extension exist" runs
  elsewhere: ``_search`` steps one symbol at a time, depth first, and stops
  at the first witness, within its per-symbol budget.  It answers a single
  question (``admissible_extension_exists``), and the questions of a set
  that the pinned sweep below leaves.  Both searches compile each forbidden
  shape once (``_constraint_table``), shared by all its placements.
* ``count_profile_dp`` -- a frontier dynamic program for any finite forbidden
  set.  When each forbidden pattern is one cell or two adjacent cells along
  one axis the count is a product of 1-D transfer counts over maximal runs,
  which keeps lattices with millions of cells exact.  The counts a_L of
  admissible strings of length L come from one series (``_string_counts``),
  and a rectangle table of such a spec (``_rect_logs``) reads it alone: the
  count on m x n is a_m ** n along x, so the table builds no lattice.
  Otherwise a broken-profile sweep takes the bans from ``placements``, each
  attached to its last cell, and its state holds exactly what they read:
  ``depth`` positions, the longest back distance of a placed ban (at least
  1).  It orders the cells column-major or row-major, whichever needs the
  smaller depth, on a tie the shorter frontier.  It steps through the
  lattice's own rows and columns: empty rows no placed shape spans close to
  one, a stretch of empty columns shortens to the run that flushes a state.  The
  live states are one numpy array of base-N codes (int64 while
  ``N ** depth < 2**63``, else Python ints), the newest cell least
  significant, sorted beside one column of weights: exact weights are int64
  until a step that adds could pass 2**63 - 1 (a successor sums at most N
  of them), then Python ints.  A position outside the lattice holds digit
  0.  The layout (``_sweep_bans``) reads each distinct shape's placements
  once, from its offsets, and weighs both orientations per shape.  It gives
  each position its step: None off the lattice, else the bans (built for
  the winning orientation only) of the shapes ending there, compiled into
  one table indexed by the base-N code of the digits they read
  (``_compile_bans``; one mask per ban past ``_DENSE`` entries), one object
  per set of shapes.  Each step (``_sweep_step``) yields the successor
  codes and a plan that carries weights to them; where no ban reads the
  digit a step drops, the states that differ only there merge before they
  extend.  The plans' indices are intp.  Counts and pinned sweeps share
  one run loop (``_sweep_run``): it alone steps, and caches one column of
  steps by row, keyed exactly by step object, merging flag and incoming
  codes, each array charged once (``_plan_words``).  A count refuses
  (BudgetExceeded) when its positions, or a step's live states times N,
  times the 64-bit words of one code pass ``DEFAULT_BUDGET`` (which also
  bounds the cache's words).  A pinned sweep (``_sweeps``) answers many
  extension questions at once: each query fixes the symbols of the same
  cells, the weights are one bool per state and query, and a pinned cell
  masks the successors by their newest digit.  ``_extensions`` alone
  gathers a stream of questions (an extendable count's core patterns, a
  gluing offset's window pairs) into sets of about `budget` pinned symbols.
  Per set, a sweep that would cost more per query than a search that never
  backtracks, or that cannot fit a single query, leaves the queries to
  ``_search``, one at a time; a search past its budget hands them back to
  sweeps at any cost.
* ``log_count`` -- natural log of the count through the same sweep, with
  one float64 weight per state, renormalised once the total passes 1e12 so
  huge lattices never materialise huge integers.

Counts are exact arbitrary-precision integers, and budgets integers
(``lattice._integer``); ``count`` dispatches between the routes, falling
back to brute force when the sweep refuses, and given a margin returns the
extendable-count refinement (pinned sweeps of the dilation, one query per
admissible core pattern).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache, partial
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import BudgetExceeded, SymbolOutOfRange
from .lattice import (FiniteLattice, _cells, _check_dilation, _integer, _placement_runs, _run_lengths,
                      dilate, rectangle)
from .sft import CountResult, SftSpec

DEFAULT_BUDGET = 2 ** 24     # cap on N ** |free cells| and on the sweep's code words


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

_BLOCK = 4096     # rows of partial assignments the block search extends per step
_DENSE = 4096     # base-N codes a check's lookup table may cover


def _check_budget(alphabet_size: int, cells: int, budget: int) -> None:
    # N >= 2, so N**cells >= 2**cells > budget once cells >= budget.bit_length()
    if cells >= budget.bit_length() or alphabet_size ** cells > budget:
        raise BudgetExceeded(f"{alphabet_size}**{cells} assignments exceed budget {budget}")


def _occurrence_checks(placed, n_cells: int):
    """``_search`` checks from `placed` (``_block_checks``): per cell, ``(read,
    banned)`` per placement ending there, one `banned` dict per shape."""
    checks: list[list] = [[] for _ in range(n_cells)]
    for rows, bans in placed:
        banned = {k[0] if len(k) == 1 else k: v for k, v in bans.items()}
        for *others, last in rows:
            checks[last].append((itemgetter(*others) if others else lambda _: (), banned))
    return checks


def _block_checks(placed, n_cells: int, n: int):
    """``_block_search`` arguments for `n` symbols from `placed`, per shape
    ``(rows, bans)``: its placements as rows of cell indices, the last the
    cell checked, and ``{other cells' symbols: banned last symbols}``.  The
    free symbols, an ``(n_cells, n)`` mask with one-cell bans cleared; per
    cell one check per placement ending there, a block to its ``(rows, n)``
    allowed mask by its shape's table (the other cells' base-N code, up to
    ``_DENSE`` rows) or banned keys; `read`: does a later check read a cell?"""
    free = np.ones((n_cells, n), dtype=bool)
    read = np.zeros(n_cells, dtype=bool)
    checks: list[list] = [[] for _ in range(n_cells)]
    for rows, bans in placed:
        width = len(next(iter(bans)))     # other cells of each placement
        read[[c for row in rows for c in row[:-1]]] = True
        if not width:
            free[np.ix_([row[0] for row in rows], list(bans[()]))] = False
            continue
        if n ** width <= _DENSE:
            allow = np.ones((n,) * width + (n,), dtype=bool)
            for key, syms in bans.items():
                allow[key][list(syms)] = False
            check = partial(_lookup, n, allow.reshape(-1, n))
        else:
            check = partial(_compare, np.array(list(bans), dtype=np.int64)[:, None, :],
                            np.array([[s in syms for s in range(n)] for syms in bans.values()]))
        for *others, last in rows:     # partials flatten: one positional call each
            checks[last].append(partial(check, others))
    return free, checks, read


def _lookup(n: int, allow, cells, block):
    """The rows of `allow` at the base-N code of `cells` in each row of
    `block`, the first cell most significant."""
    code = block[:, cells[0]]
    if len(cells) > 1:
        code = code.astype(np.intp)
        for c in cells[1:]:
            code *= n
            code += block[:, c]
    return allow.take(code, axis=0)


def _compare(keys, bans, cells, block):
    """Per row of `block`, the symbols that no key its `cells` hold bans;
    key j bans the symbols of row j of `bans`."""
    return ~((block[:, cells] == keys).all(2).T @ bans)


def _block_search(free, checks, counted):
    """Yield ``(block, weights)`` over the admissible assignments, in
    lexicographic order of the built cells: `block` holds up to ``_BLOCK``
    of them as rows, one column per cell, and `weights` per row the number
    of ways to fill its `counted` cells (None before the first).  Cell i
    takes the symbols of ``free[i]`` that every check in ``checks[i]``
    allows.  A counted cell, which no check at a later cell may read, is not
    built: each row's weight is multiplied by its number of allowed symbols
    there, and the column stays unset; rows left with none are dropped
    before the next cell (after the last they stay, at weight 0).  Any other
    cell extends each row once per allowed symbol, in (row, symbol) order;
    the search goes on with the child's first ``_BLOCK`` rows, and the rest
    wait on an explicit stack in blocks of ``_BLOCK``, at most ``(N - 1) *
    _BLOCK`` rows a cell, so memory does not grow with the count.  Weights
    are int64 while ``N ** cells < 2**63``, which no weight and no block sum
    can pass, else Python ints."""
    n_cells, n = free.shape
    exact = object if n_cells >= 63 or n ** n_cells >= 2 ** 63 else np.int64
    ones = np.ones(n, dtype=np.int64)      # mask @ ones counts a row's symbols, faster than a sum along it
    stack = [(0, np.zeros((1, n_cells), dtype=np.min_scalar_type(n - 1)), None)]
    while stack:
        i, block, weights = stack.pop()
        for i in range(i, n_cells):
            allowed = np.repeat(free[i:i + 1], len(block), axis=0)
            for check in checks[i]:
                allowed &= check(block)
            if counted[i]:
                ways = allowed @ ones if exact is np.int64 else (allowed @ ones).astype(object)
                weights = ways if weights is None else weights * ways
                if i + 1 < n_cells and np.count_nonzero(ways) < len(ways):
                    keep = ways.nonzero()[0]
                    block, weights = block.take(keep, axis=0), weights.take(keep)
            else:
                rows, syms = np.divmod(allowed.ravel().nonzero()[0], n)     # in (row, symbol) order
                block = block.take(rows, axis=0)
                block[:, i] = syms
                if weights is not None:
                    weights = weights.take(rows)
                del allowed, rows, syms     # freed before the next cell allocates
                if len(block) > _BLOCK:
                    # the other blocks wait as copies, the next on top, so
                    # the child is freed once the first block moves on
                    for k in reversed(range(_BLOCK, len(block), _BLOCK)):
                        stack.append((i + 1, block[k:k + _BLOCK].copy(),
                                      None if weights is None else weights[k:k + _BLOCK].copy()))
                    block, weights = block[:_BLOCK], None if weights is None else weights[:_BLOCK]
            if not len(block):
                break
        else:
            yield block, weights


def _count_blocks(free, checks, read) -> int:
    """Number of admissible assignments, summed exactly over the blocks;
    every cell no later check reads is counted, never built."""
    return sum(len(block) if weights is None else int(np.add.reduce(weights))
               for block, weights in _block_search(free, checks, ~read))


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
    (`blocks`, with its read cells) or of ``_search``, built once per
    lattice and spec.  A shape's canonical (y, x) offsets end at the last
    cell of each of its placements, which are read once."""
    index = dict(zip(map(tuple, lat.coords.tolist()), range(len(lat))))     # as Points hash
    shapes: dict = {}     # offsets -> {other cells' symbols: banned last symbols}
    for pat in spec.forbidden:
        offsets, syms = zip(*pat.cells)
        shapes.setdefault(offsets, {}).setdefault(syms[:-1], set()).add(syms[-1])
    placed = []
    for offsets, bans in shapes.items():
        x, y = _cells(_placement_runs(offsets, lat))
        placed.append(([[index[(px + vx, py + vy)] for px, py in offsets]
                        for vx, vy in zip(x.tolist(), y.tolist())], bans))
    if blocks:
        return index, *_block_checks(placed, len(lat), spec.alphabet_size)
    # safe symbols first: no check bans one, so with one the search extends
    # admissible fixed cells without backtracking
    safe = spec.safe_symbols
    free = [safe + tuple(s for s in range(spec.alphabet_size) if s not in safe)] * len(lat)
    return index, free, _occurrence_checks(placed, len(lat))


def _symbol(s, n: int) -> int:
    """A fixed symbol: an integer (else ValueError) below `n` (else SymbolOutOfRange)."""
    s = _integer(s)
    if not 0 <= s < n:
        raise SymbolOutOfRange(f"fixed symbol {s} outside alphabet 0..{n - 1}")
    return s


def _domains(lat: FiniteLattice, spec: SftSpec, fixed):
    """Free domains, checks and read cells (``_block_checks``) of the block
    search for `lat`; a cell in `fixed` keeps one symbol (see ``_symbol``)."""
    index, free, checks, read = _constraint_table(lat, spec, blocks=True)
    domains = free.copy() if fixed else free      # the cached table stays as built
    for p, s in (fixed or {}).items():
        s = _symbol(s, spec.alphabet_size)
        i = index.get(p)          # Points, int pairs and numpy scalars hash alike
        if i is not None:
            domains[i] &= np.arange(spec.alphabet_size) == s
    return domains, checks, read


def count_bruteforce(
    lat: FiniteLattice,
    spec: SftSpec,
    budget: int = DEFAULT_BUDGET,
    fixed: dict | None = None,
) -> CountResult:
    """Exhaustive count of locally admissible assignments (reference oracle)."""
    free = len(lat) - sum(p in lat for p in fixed or ())
    _check_budget(spec.alphabet_size, free, _integer(budget))
    return CountResult(_count_blocks(*_domains(lat, spec, fixed)), len(lat))


def _admissible_rows(lat: FiniteLattice, spec: SftSpec, budget: int = DEFAULT_BUDGET):
    """Yield the admissible assignments of `lat` in lexicographic order, as
    blocks of rows in canonical cell order, once N ** |lat| is within `budget`."""
    _check_budget(spec.alphabet_size, len(lat), budget)     # before any set-up
    domains, checks, _ = _domains(lat, spec, None)
    for block, _ in _block_search(domains, checks, np.zeros(len(lat), dtype=bool)):
        yield block


def enumerate_admissible(lat: FiniteLattice, spec: SftSpec, budget: int = DEFAULT_BUDGET):
    """Every admissible assignment as a symbol tuple in canonical order, lazily."""
    return (tuple(row) for rows in _admissible_rows(lat, spec, _integer(budget)) for row in rows.tolist())


def admissible_extension_exists(
    lat: FiniteLattice, spec: SftSpec, fixed: dict, budget: int = DEFAULT_BUDGET
) -> bool:
    """Is there an admissible assignment agreeing with `fixed` (symbols as in
    ``_symbol``)?  The search may assign at most `budget` cells, else it
    raises BudgetExceeded."""
    symbols = [_symbol(s, spec.alphabet_size) for s in fixed.values()]
    return _extension_oracle(lat, spec, list(fixed), _integer(budget))(symbols)


def _extension_oracle(lat: FiniteLattice, spec: SftSpec, points, budget: int = DEFAULT_BUDGET):
    """``exists(symbols)``: is there an admissible assignment on `lat` with
    ``symbols[i]`` at ``points[i]`` (points off `lat` are ignored)?  The
    constraint table and the cells are looked up once, for many calls; the
    symbols must be integers in the alphabet.  Each call's search may assign
    at most `budget` cells, else it raises BudgetExceeded."""
    index, free, checks = _constraint_table(lat, spec, blocks=False)
    cells = [(i, k) for k, i in enumerate(map(index.get, points)) if i is not None]

    def exists(symbols) -> bool:
        domains = free.copy()
        for i, k in cells:
            domains[i] = (symbols[k],)
        return _search(domains, checks, budget)
    return exists


# ---------------------------------------------------------------------------
# 1-D transfer counts for single-axis constraints
# ---------------------------------------------------------------------------


def _string_counts(spec: SftSpec, lengths) -> list[int]:
    """a_L, the number of admissible strings of length L along the spec's
    axis, exactly, for each L of the ascending `lengths`."""
    banned, pairs = set(), set()
    for pat in spec.forbidden:     # one cell, or two along the axis, (0, 0) first
        if len(pat.cells) == 1:
            banned.add(pat.cells[0][1])
        else:
            pairs.add((pat.cells[0][1], pat.cells[1][1]))
    symbols = [s for s in range(spec.alphabet_size) if s not in banned]
    pairs = [(a, b) for a, b in pairs if a not in banned and b not in banned]
    # admissible strings of the current length, their total and their count
    # by last symbol (the empty string has none): a string grows by every
    # symbol but those a pair bars after its last, O(N + pairs) a step
    length, total, ending = 0, 1, dict.fromkeys(symbols, 0)
    counts = []
    for want in lengths:
        while length < want:
            grown = dict.fromkeys(symbols, total)
            for a, b in pairs:
                grown[b] -= ending[a]
            ending, length = grown, length + 1
            total = sum(ending.values())
        counts.append(total)
    return counts


def _axis_product(lat: FiniteLattice, spec: SftSpec, log_domain: bool):
    """Product over the maximal runs along the spec's axis of the number of
    admissible strings of each run's length; returns it exactly or its log."""
    runs = _run_lengths(lat, spec.pure_axis)     # ascending
    counts = list(zip(_string_counts(spec, runs), runs.values()))
    if not log_domain:
        return math.prod(c ** mult for c, mult in counts)
    if any(c == 0 for c, _ in counts):
        return float("-inf")
    return sum((mult * math.log(c) for c, mult in counts), 0.0)


def _rect_logs(spec: SftSpec, width: int, height: int) -> tuple[tuple[float, ...], ...]:
    """Natural log counts on every m x n rectangle, m <= width and n <= height,
    as rows ``[m - 1][n - 1]``.  A single-axis spec builds no lattice: the
    count on m x n is a_m ** n along x (a_n ** m along y), so the entries
    read one string-count series and equal ``log_count`` bit for bit."""
    if spec.pure_axis is None:
        return tuple(tuple(log_count(rectangle((0, 0), m, n), spec) for n in range(1, height + 1))
                     for m in range(1, width + 1))
    horizontal = spec.pure_axis == "horizontal"
    logs = [math.log(a) if a else float("-inf")
            for a in _string_counts(spec, range(1, (width if horizontal else height) + 1))]
    if horizontal:
        return tuple(tuple(n * logs[m - 1] for n in range(1, height + 1)) for m in range(1, width + 1))
    return tuple(tuple(m * logs[n - 1] for n in range(1, height + 1)) for m in range(1, width + 1))


# ---------------------------------------------------------------------------
# broken-profile sweep for general specs
# ---------------------------------------------------------------------------


_SweepLayout = namedtuple("_SweepLayout", "depth dtype words steps h position")


def _sweep_bans(lat: FiniteLattice, spec: SftSpec) -> _SweepLayout:
    """The sweep's layout, read from `placements`: the state depth, the dtype
    and 64-bit words of one code, per position its step (None off the
    lattice, else the ``_compile_bans`` of the bans (banned symbol, (back
    distance, symbol) per other cell) of the shapes ending there, one object
    per set of shapes), the frontier length h, and ``position(cells)``, the
    positions of an ``(k, 2)`` array of lattice cells.  Position
    ``column * h + row`` holds a cell; the depth is the longest back
    distance of a placed ban, at least 1, and the orientation the one that
    needs the smaller depth, on a tie the smaller h.  The layout is refused
    before it is allocated when its positions times a code's words pass the
    budget.
    """
    n = spec.alphabet_size
    # a shape is keyed by its canonical offsets: hashing a tuple is cheap
    keys = [tuple(p for p, _ in pat.cells) for pat in spec.forbidden]
    runs = {key: _placement_runs(key, lat) for key in dict.fromkeys(keys)}
    bit = {key: 1 << i for i, key in enumerate(k for k, r in runs.items() if len(r))}

    def orient(major):
        """Depth, h, major axis, rows, and per placed shape (last cell, back distances)."""
        # the lattice's rows (sorted, with repeats); a gap no placed shape
        # spans closes to one row.  Differences are exact in uint64
        ys = (lat._runs if major == 0 else lat._truns)[:, 0]
        reach = max([0] + [p[1 - major] for key in bit for p in key])
        gaps = np.diff(ys.view(np.uint64))
        rows = np.append(np.uint64(0), np.where(gaps > reach, 1, gaps).cumsum())
        h = int(rows[-1]) + 1
        last = {}
        for key in bit:
            *others, end = sorted(key, key=lambda p: (p[major], p[1 - major]))
            last[key] = end, {p: (end[major] - p[major]) * h + end[1 - major] - p[1 - major]
                              for p in others}
        depth = max([1] + [d for _, dist in last.values() for d in dist.values()])
        return depth, h, major, (ys, rows), last

    depth, h, major, (ys, rows), last = min(orient(0), orient(1), key=itemgetter(0, 1))
    bans = []
    for key, pat in zip(keys, spec.forbidden):
        if key in bit:
            (end, dist), sym = last[key], dict(pat.cells)
            bans.append((bit[key], sym[end], tuple((d, sym[p]) for p, d in dist.items())))
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
    # per position one bit per shape ending there, -1 off the lattice: int64
    # while at most 63 shapes are placed, else Python ints
    shapes = np.full(positions, -1, dtype=np.int64 if len(bit) < 64 else object)
    shapes[position(lat.coords)] = 0
    if bit:      # all placed shapes' last cells in one call; `at` ORs shapes ending at one position
        ends = [np.column_stack(_cells(runs[key])) + last[key][0] for key in bit]
        bits = np.repeat(np.array(list(bit.values()), dtype=shapes.dtype), [len(e) for e in ends])
        np.bitwise_or.at(shapes, position(np.concatenate(ends)), bits)
    shapes = shapes.tolist()
    step = {code: _compile_bans([(sym, back) for b, sym, back in bans if code & b], n, depth)
            for code in set(shapes) - {-1}}     # codes in use
    return _SweepLayout(depth, dtype, words, [step.get(code) for code in shapes], h, position)


def _compile_bans(bans, n: int, depth: int):
    """One position's step ``(check, oldest)``.  `check` maps state codes to
    the ``(states, n)`` mask of the symbols that the position's bans (banned
    symbol, (back distance, symbol) per other cell) allow; `oldest` says
    whether a ban reads back `depth`, the digit a merging step drops.  The
    bans compile into one table indexed by the base-N code of the digits
    they read, the nearest least significant, while it has at most
    ``_DENSE`` entries (rows times n); past that each ban builds its own
    mask, as the block search compares keys past its tables."""
    reads = sorted({d for _, back in bans for d, _ in back})
    oldest = bool(reads) and reads[-1] == depth
    if n ** len(reads) * n > _DENSE:
        return partial(_ban_masks, n, bans), oldest
    place = {d: len(reads) - 1 - i for i, d in enumerate(reads)}   # the nearest last
    allow = np.ones((n,) * len(reads) + (n,), dtype=bool)
    for sym, back in bans:
        key = [slice(None)] * len(reads)
        for d, s in back:
            key[place[d]] = s
        allow[(*key, sym)] = False
    # each run of consecutive digits is one (divisor, modulus, place value)
    runs = [[i for i, _ in run] for _, run in groupby(enumerate(reads), lambda p: p[1] - p[0])]
    spans = [(n ** (reads[run[0]] - 1), n ** len(run), n ** run[0]) for run in runs]
    return partial(_ban_lookup, spans, allow.reshape(-1, n)), oldest


def _ban_masks(n: int, bans, codes):
    """The allowed symbols of each of `codes`, one mask per ban."""
    ok = np.ones((len(codes), n), dtype=bool)
    digits: dict = {}
    for sym, back in bans:
        hit = np.ones(len(codes), dtype=bool)    # a single-cell ban hits all
        for d, s in back:
            if d not in digits:
                digits[d] = codes // n ** (d - 1) % n
            hit &= digits[d] == s
        ok[:, sym] &= ~hit
    return ok


def _ban_lookup(spans, allow, codes):
    """The rows of `allow` at the code of the digits read in each of `codes`:
    per run of digits, ``codes // divisor % modulus * place value``."""
    if not spans:
        return np.broadcast_to(allow, (len(codes), allow.shape[1]))
    (div, mod, _), *rest = spans     # the nearest run has place value 1
    index = (codes // div if div > 1 else codes) % mod
    for div, mod, place in rest:
        index += codes // div % mod * place
    return allow.take(index.astype(np.intp, copy=False), axis=0)


def _groups(keys, src):
    """The distinct keys of the sorted `keys` and the plan that sums the
    weights at `src` per key, in order: each key's first source, and per
    k = 1, 2, ... the keys with a k-th source and that source, intp."""
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    ends = np.append(starts[1:], len(keys))
    terms = []
    for k in range(1, len(keys)):     # a group with k + 1 sources also has k
        at = np.flatnonzero(starts + k < ends)
        if not len(at):
            break
        terms.append((at, src[starts[at] + k]))
    return keys[starts], (src[starts], terms)


def _sweep_step(codes, step, merging: bool, n: int, top: int):
    """One sweep step from the sorted state codes `codes` at a position of
    layout step `step` (None off the lattice); `merging` when the state's
    oldest digit, ``top`` its place value, is a present cell.  Returns the
    sorted successor codes and the plan ``(first, terms, after)`` that carries
    weights to them, all intp indices (numpy's fast path for gathers and
    scatter-adds): ``w[first]``, then per k-th source ``(at, src)``
    ``w[at] += w[src]``, then the gather ``w[after]`` if any.

    The step's check (``_compile_bans``) gives each state's allowed symbols.
    Where no ban reads the oldest digit, a merging step first merges the
    states that share all other digits (a merge of at most n sources each,
    in state order) and then extends them, gathering each successor's
    weight; otherwise it extends every state and then groups the successors
    by code.  Either way each successor sums the same sources in the same
    order."""
    check, oldest = step or (None, False)
    merge = None
    if merging and not oldest:
        keys = codes % top
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        codes, merge = _groups(keys, order)
        del keys, order
        merging = False
    if check is not None:
        rows, syms = np.nonzero(check(codes))   # in state order, then symbol order
    else:
        rows, syms = np.arange(len(codes), dtype=np.intp), 0
    # the oldest digit leaves the state; only a present cell there can make
    # two states meet.  Otherwise the successors, in state order then symbol
    # order, are already sorted
    dest = (codes % top if merging else codes)[rows] * n + syms
    del syms
    if merge is not None:     # off the lattice `rows` is the identity
        return dest, (*merge, rows if check is not None else None)
    if not merging or not len(dest):
        return dest, (rows, (), None)
    # group successors by code, at most n sources each, in state order
    order = np.argsort(dest, kind="stable")
    dest, rows = dest[order], rows[order]
    del order
    dest, (first, terms) = _groups(dest, rows)
    return dest, (first, terms, None)


def _plan_words(dest, plan, words: int) -> int:
    """64-bit words a cached step holds of its own: its successor codes and
    its plan's intp indices, one word each.  Its key codes are the previous
    position's successor codes, charged with that position's step."""
    first, terms, after = plan
    indices = len(first) + sum(2 * len(at) for at, _ in terms) + len(() if after is None else after)
    return len(dest) * words + indices


def _sweep_run(layout: _SweepLayout, n: int, charge):
    """Yield ``(t, codes, plan)`` per position t of `layout`, from the
    all-zero state: the sorted successor codes and the ``_sweep_step`` plan
    that carries weights to them.  Before a step at a cell ``charge(states)``
    may raise BudgetExceeded; a true result ends the run, as does a step
    that leaves no state, once yielded."""
    depth, dtype, words, steps, h, _ = layout
    top, codes = n ** (depth - 1), np.zeros(1, dtype=dtype)
    # one column of steps, by row: a step repeats the one a column back when
    # its step object, merging flag and incoming codes (compared exactly) do.
    # Each array the cache holds is charged once: an entry's key codes are the
    # previous position's successor codes, charged with its entry, or with
    # this one when that step was not stored (`kept` is False).  The charged
    # words stay within the budget; past it a step is not stored
    cache, held, kept = [None] * h, 0, True
    for t, step in enumerate(steps):
        if step is not None and charge(codes):
            return
        merging = t >= depth and steps[t - depth] is not None
        entry = cache[t % h]
        if (entry is not None and entry[0] is step and entry[1] == merging
                and (entry[2] is codes
                     or len(entry[2]) == len(codes) and np.array_equal(entry[2], codes))):
            dest, plan = entry[3], entry[4]
            if entry[2] is not codes and kept:     # hold the stored codes, not an equal copy
                cache[t % h] = (step, merging, codes, *entry[3:])
            kept = True
        else:
            if entry is not None:     # freed before the step allocates
                cache[t % h], held, entry = None, held - entry[5], None
            dest, plan = _sweep_step(codes, step, merging, n, top)
            size = _plan_words(dest, plan, words) + (0 if kept else len(codes) * words)
            kept = held + size <= DEFAULT_BUDGET
            if kept:
                cache[t % h], held = (step, merging, codes, dest, plan, size), held + size
        yield t, dest, plan
        if not len(dest):
            return
        codes = dest


def _carry(weights, plan):
    """The successors' weights (one row each) by a ``_sweep_step`` plan."""
    first, terms, after = plan
    merged = weights[first]
    for at, src in terms:        # added one source at a time, in state order
        merged[at] += weights[src]
    return merged if after is None else merged[after]


def _profile_sweep(lat: FiniteLattice, spec: SftSpec, log_domain: bool):
    """Run the broken-profile DP; returns the exact count or its natural log."""
    n = spec.alphabet_size
    # a state is the last `depth` positions' symbols as one base-n code, the
    # newest cell least significant, absent cells 0.  States stay sorted by
    # code, each with one weight: an exact integer, or a renormalised float64.
    # Exact weights are int64 until a step that adds could pass 2**63 - 1 (a
    # successor sums at most n weights), then Python ints from there on
    layout = _sweep_bans(lat, spec)
    weights = np.ones(1, dtype=np.float64 if log_domain else np.int64)
    limit = None if log_domain else (2 ** 63 - 1) // n
    log_scale = 0.0
    # `high` bounds the weights from above, so they are scanned only once it
    # passes a threshold: both decisions below fall at the steps a scan at
    # every step would put them.  Exact: the largest weight, times
    # len(terms) + 1 a step, the most sources a successor sums.  Log: the
    # float sum, times n a step (a plan carries a weight to at most n
    # successors) and a slack of 1.001, far above float rounding (a
    # relative len(weights) * 2**-52 per sum)
    high = 1

    def charge(states):
        # candidate successors times their words bound every array a step allocates
        if len(states) * n * layout.words > DEFAULT_BUDGET:
            raise BudgetExceeded(f"{len(states)} states * {n} * {layout.words}"
                                 f" code words exceed budget {DEFAULT_BUDGET}")
    for _, _, plan in _sweep_run(layout, n, charge):
        if plan[1] and limit is not None:
            if high > limit:
                high = int(weights.max())
                if high > limit:
                    weights, limit = weights.astype(object), None
            high *= len(plan[1]) + 1
        weights = _carry(weights, plan)
        if log_domain:
            high *= n * 1.001
            # the pairwise sum is far within 0.1% of fsum: fsum runs only where it may pass 1e12
            if high > 0.999e12:
                high = weights.sum()
                if high > 0.999e12:
                    total = math.fsum(weights.tolist())
                    if total > 1e12:
                        weights *= 1.0 / total
                        log_scale += math.log(total)
                        high /= total
                high *= 1.001
    if not log_domain:
        return sum(weights.tolist())
    return log_scale + math.log(math.fsum(weights.tolist())) if len(weights) else float("-inf")


# what a pinned sweep and a search cost, in query weights of a pinned step
# (0.25-0.3 ns each; numpy 2.4, Python 3.11, 2 shared CPUs, on extendable
# counts and gluing offsets of 1 to 32,768 queries): a candidate successor's
# codes and plans take 100-240 (27-60 ns), and one symbol a search offers a
# cell 800-2,300 (220-580 ns).  A search offers each cell at least one
# symbol, so a sweep within 1,000 a cell per query costs less than searches
_CANDIDATE_WEIGHTS = 200
_CELL_SEARCH_WEIGHTS = 1000


def _sweeps(lat: FiniteLattice, spec: SftSpec, points, symbols, budget: int, work: float):
    """Yield whether an admissible assignment on `lat` puts ``symbols[q, k]``
    at ``points[k]`` (points off `lat` are ignored), per query q, as the bool
    answers of pinned sweeps of the queries in order, until one stops.  A
    pinned sweep is the counts' run (``_sweep_run``) with a ``(states,
    queries)`` bool matrix of weights, summed as OR; a pinned cell masks the
    successors by their newest digit.  Each step charges its candidate
    successors times (code words + queries) against `budget`, dropping the
    trailing queries past it: a sweep answers the leading queries that fit
    every step, at least one, else it raises BudgetExceeded.  It stops once
    its steps at cells cost past `work` query weights per query it answers,
    candidate successors times (``_CANDIDATE_WEIGHTS`` + queries) each."""
    if not len(symbols):     # no layout to build
        return
    n, layout = spec.alphabet_size, _sweep_bans(lat, spec)
    inside = [k for k, p in enumerate(points) if p in lat]
    pinned = {}      # position -> the columns of `symbols` of its points
    cells = np.array([points[k] for k in inside], dtype=np.int64).reshape(-1, 2)
    for k, t in zip(inside, layout.position(cells).tolist()):
        pinned.setdefault(t, []).append(k)
    start = 0
    while start < len(symbols):
        rows = symbols[start:]
        weights, width, spent = np.ones((1, len(rows)), dtype=bool), len(rows), 0

        def charge(states):
            nonlocal weights, width, spent
            if len(states) * n * (layout.words + width) > budget:
                fit = budget // (len(states) * n) - layout.words     # the queries this step admits
                if fit < 1:
                    raise BudgetExceeded(f"{len(states)} states * {n} * ({layout.words} code words"
                                         f" + 1 query) exceed budget {budget}")
                weights, width = weights[:, :fit], fit
            spent += len(states) * n * (_CANDIDATE_WEIGHTS + width)
            return spent > work * width
        for t, codes, plan in _sweep_run(layout, n, charge):
            weights = _carry(weights, plan)
            if pinned and t in pinned:    # keep the successors whose newest digit is pinned
                newest = (codes % n).astype(np.intp, copy=False)[:, None]
                for k in pinned[t]:
                    weights &= newest == rows[:width, k]
        if spent > work * width:      # the run stopped
            return
        start += width
        yield weights.any(axis=0)


def _question_sets(questions, budget: int):
    """The arrays of `questions`, in order, gathered into arrays of at least
    `budget` symbols, past it by less than one array (the last may be short):
    a pinned symbol is charged a word, as a pinned sweep charges a query."""
    batch, size = [], 0
    for rows in questions:
        batch.append(rows)
        size += rows.size
        if size >= budget:
            yield np.concatenate(batch)
            batch, size = [], 0
    if batch:
        yield np.concatenate(batch)


def _extensions(lat: FiniteLattice, spec: SftSpec, points, questions, budget: int = DEFAULT_BUDGET):
    """Whether an admissible assignment on `lat` puts ``symbols[q, k]`` at
    ``points[k]`` (points off `lat` are ignored), per row q of each
    ``(k, len(points))`` array `symbols` that `questions` streams, as bool
    arrays in question order.  The arrays are asked in sets (``_question_sets``).

    Per set, pinned sweeps answer while a sweep costs no more per question
    than a search that never backtracks (``_CELL_SEARCH_WEIGHTS`` a cell).
    Where one would cost more, or a single question does not fit `budget`,
    the rest are searched one at a time (``_extension_oracle``), each within
    `budget` cells; a search past it hands the set's rest to sweeps at any
    cost, and its refusal stands only where one of those refuses too."""
    for symbols in _question_sets(questions, budget):
        start = 0
        try:
            for answers in _sweeps(lat, spec, points, symbols, budget, _CELL_SEARCH_WEIGHTS * len(lat)):
                start += len(answers)
                yield answers
        except BudgetExceeded:
            pass
        if start == len(symbols):
            continue
        exists = _extension_oracle(lat, spec, points, budget)
        for row in symbols[start:].tolist():
            try:
                answer = exists(row)
            except BudgetExceeded as refusal:
                try:
                    yield from _sweeps(lat, spec, points, symbols[start:], budget, math.inf)
                except BudgetExceeded:
                    raise refusal from None
                break
            start += 1
            yield np.array([answer])


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
    Otherwise the admissible patterns on `lat` (budgeted at N ** |lat|) are
    the questions of ``_extensions`` on the dilation; those that extend are
    kept.  Either way a dilation past the coordinate range raises ValueError.
    """
    margin, budget = _integer(margin), _integer(budget)
    if margin < 0:
        raise ValueError("margin must be >= 0")
    _check_dilation(lat, margin)
    if margin == 0 or spec.safe_symbols:
        return CountResult(count(lat, spec, budget=budget).value, len(lat), margin=margin)
    patterns = _admissible_rows(lat, spec, budget)
    answers = _extensions(dilate(lat, margin), spec, list(lat), patterns, budget)
    return CountResult(sum(int(np.count_nonzero(a)) for a in answers), len(lat), margin=margin)


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
    budget = _integer(budget)
    if margin is not None:
        return count_extendable(lat, spec, margin, budget=budget)
    try:      # the sweep refuses only past its budget
        return count_profile_dp(lat, spec)
    except BudgetExceeded as refusal:
        try:
            return count_bruteforce(lat, spec, budget=budget)
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"profile sweep: {refusal}; brute force: {exc}") from exc
