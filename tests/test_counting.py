import math
import time
from contextlib import nullcontext
import tracemalloc
from itertools import combinations, product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sftent import (
    BudgetExceeded,
    FiniteLattice,
    SftSpec,
    SymbolOutOfRange,
    count,
    count_bruteforce,
    count_extendable,
    count_multiplicative,
    count_multiplicative_bruteforce,
    count_profile_dp,
    dilate,
    enumerate_admissible,
    full_shift,
    golden_mean_horizontal,
    golden_mean_vertical,
    log_count,
    lshape,
    omega_q,
    period_forcing_horizontal,
    rectangle,
    replay_counterexample,
    staircase,
    stick_augmented,
    verify_block_gluing,
)
from sftent.sft import Pattern, forbidden_occurrences, is_locally_admissible, placements
from sftent import counting
from sftent.counting import _check_budget, _sweep_bans, admissible_extension_exists
from conftest import meet_off, random_connected_lattice


def fib_a(k):
    """a_1 = 2, a_2 = 3, a_k = a_{k-1} + a_{k-2}: strings with no adjacent 1s."""
    a, b = 1, 2
    for _ in range(k):
        a, b = b, a + b
    return a


GM_H = golden_mean_horizontal()
GM_V = golden_mean_vertical()


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


def test_bruteforce_basic_values():
    assert count_bruteforce(rectangle((0, 0), 2, 2), GM_H).value == 9
    assert count_bruteforce(rectangle((0, 0), 4, 1), GM_H).value == 8
    assert count_bruteforce(FiniteLattice(), GM_H).value == 1


def test_vertical_spec_strip_counts():
    assert count(rectangle((0, 0), 1, 2), GM_V).value == 3
    assert count(rectangle((0, 0), 2, 1), GM_V).value == 4
    # transpose symmetry between the two specs
    for m, n in [(3, 2), (5, 1), (2, 4)]:
        assert (
            count(rectangle((0, 0), m, n), GM_V).value
            == count(rectangle((0, 0), n, m), GM_H).value
        )


def test_bruteforce_budget():
    with pytest.raises(BudgetExceeded):
        count_bruteforce(rectangle((0, 0), 5, 5), GM_H, budget=2**24)


@pytest.mark.parametrize(
    "alphabet_size, cells, accepted",
    [(2, 24, True), (2, 25, False), (3, 4_000_000, False)],
)
def test_check_budget_is_exact(alphabet_size, cells, accepted):
    if accepted:
        _check_budget(alphabet_size, cells, 2**24)
    else:
        with pytest.raises(BudgetExceeded):
            _check_budget(alphabet_size, cells, 2**24)


def test_bruteforce_fixed_cells():
    strip = rectangle((0, 0), 3, 1)
    # pinning the middle cell to 1 forbids 1s next to it: (0|0), strings 0 1 0
    res = count_bruteforce(strip, GM_H, fixed={(1, 0): 1})
    assert res.value == 1
    res = count_bruteforce(strip, GM_H, fixed={(1, 0): 0})
    assert res.value == 4
    # numpy and float keys find the same cell
    assert count_bruteforce(strip, GM_H, fixed={(np.int64(1), np.int64(0)): 1}).value == 1
    assert count_bruteforce(strip, GM_H, fixed={(1.0, 0.0): 1}).value == 1


def test_bruteforce_budget_counts_only_free_lattice_cells():
    # 20 free cells: fixing 18 cells outside the lattice frees none of them
    outside = {(10 + i, 0): 0 for i in range(18)}
    with pytest.raises(BudgetExceeded):
        count_bruteforce(rectangle((0, 0), 5, 4), GM_H, budget=16, fixed=outside)
    inside = {(x, y): 0 for x in range(5) for y in range(4) if (x, y) > (0, 1)}
    assert count_bruteforce(rectangle((0, 0), 5, 4), GM_H, budget=16, fixed=inside).value == 4


def test_bruteforce_rejects_fixed_symbol_outside_alphabet():
    with pytest.raises(SymbolOutOfRange):
        count_bruteforce(rectangle((0, 0), 2, 1), GM_H, fixed={(0, 0): 7})
    with pytest.raises(SymbolOutOfRange):
        admissible_extension_exists(rectangle((0, 0), 2, 1), GM_H, {(0, 0): -1})


BRUTE_BOX = [(x, y) for x in range(3) for y in range(3)]
ORACLE_CELLS = {2: 7, 3: 5, 4: 4}     # a 3x3 box with holes: N ** cells candidates


@st.composite
def bruteforce_specs(draw):
    """Specs whose 1-4-cell shapes lie in a 3x3 box, N in 2..4, 1-4 patterns."""
    n = draw(st.integers(2, 4))
    pattern = st.lists(st.tuples(st.sampled_from(BRUTE_BOX), st.integers(0, n - 1)),
                       min_size=1, max_size=4, unique_by=lambda cell: cell[0])
    return SftSpec.make(n, draw(st.lists(pattern, min_size=1, max_size=4)))


def product_oracle(lat, spec):
    """Every admissible assignment, in lexicographic order, by filtering all
    of them through `is_locally_admissible`."""
    return [syms for syms in product(range(spec.alphabet_size), repeat=len(lat))
            if is_locally_admissible(Pattern(lat, syms), spec)]


@settings(max_examples=40, deadline=None)
@given(bruteforce_specs(), st.randoms(use_true_random=False), st.sampled_from((1, 2, 7)),
       st.booleans(), st.integers(1, 16), st.integers(2, 5))
def test_block_search_matches_oracles(spec, rnd, block, compare, n, q):
    # blocks of 1, 2 and 7 rows split every child, and the weights with
    # them; `compare` sends every check through the banned-key comparison
    # instead of a lookup table.  The sparse lattice, spread over a 6x6 box,
    # has cells that no later check reads between cells that are built
    size = ORACLE_CELLS[spec.alphabet_size]
    sparse = [(x, y) for x in range(6) for y in range(6)]
    for lat in (FiniteLattice(rnd.sample(BRUTE_BOX, size)), FiniteLattice(rnd.sample(sparse, size))):
        points = list(lat)
        fixed = {p: rnd.randrange(spec.alphabet_size)
                 for p in rnd.sample(points, rnd.randint(0, min(2, len(points))))}
        admissible = product_oracle(lat, spec)
        pinned = [syms for syms in admissible
                  if all(syms[points.index(p)] == s for p, s in fixed.items())]
        with patch.object(counting, "_BLOCK", block), \
                patch.object(counting, "_DENSE", 1 if compare else counting._DENSE):
            counting._constraint_table.cache_clear()      # tables built under the patch
            try:
                assert list(enumerate_admissible(lat, spec)) == admissible
                sets = list(counting._question_sets(counting._admissible_rows(lat, spec),
                                                    3 * len(lat)))     # 3 rows
                assert [tuple(row) for b in sets for row in b.tolist()] == admissible
                most = max((rows.size for rows in counting._admissible_rows(lat, spec)), default=0)
                assert all(3 * len(lat) <= b.size < 3 * len(lat) + most for b in sets[:-1])
                assert count_bruteforce(lat, spec).value == len(admissible)
                assert count_bruteforce(lat, spec, fixed=fixed).value == len(pinned)
                assert count_multiplicative_bruteforce(n, q) == count_multiplicative(n, q)
            finally:
                counting._constraint_table.cache_clear()


def test_block_search_counts_unread_cells_exactly_beyond_int64():
    # 70 isolated cells are all counted, none built: 2**70 fits no int64
    # weight.  A 3x3 block (63 hard-square patterns) beside 64 isolated
    # cells builds the block and counts the rest
    apart = FiniteLattice([(2 * i, 0) for i in range(70)])
    assert count_bruteforce(apart, HARD_SQUARE, budget=2**70).value == 2**70
    mixed = rectangle((0, 0), 3, 3).union(FiniteLattice([(2 * i, 10) for i in range(64)]))
    assert count_bruteforce(mixed, HARD_SQUARE, budget=2**73).value == 63 * 2**64


def test_block_checks_compare_keys_past_the_lookup_table(rng):
    # a 3x3 pattern over 3 symbols has 3**8 keys, past _DENSE: its check
    # compares keys.  Forcing every check there must keep every count,
    # against the sweep
    wide = SftSpec.make(3, [[((x, y), (x + y) % 3) for x in range(3) for y in range(3)]])
    square = rectangle((0, 0), 3, 3)
    assert count_bruteforce(square, wide).value == 3**9 - 1
    corpus = [(rectangle((0, 0), 4, 3), wide)]
    box = [(x, y) for x in range(4) for y in range(3)]
    for _ in range(30):
        n = rng.choice((2, 3))
        patterns = [[(c, rng.randrange(n)) for c in rng.sample(BRUTE_BOX, rng.randint(2, 4))]
                    for _ in range(rng.randint(1, 4))]
        corpus.append((FiniteLattice(rng.sample(box, 10 if n == 2 else 7)),
                       SftSpec.make(n, patterns)))
    with patch.object(counting, "_DENSE", 1):
        counting._constraint_table.cache_clear()
        try:
            for lat, spec in corpus:
                assert count_bruteforce(lat, spec).value == count_profile_dp(lat, spec).value
        finally:
            counting._constraint_table.cache_clear()
    assert count_bruteforce(*corpus[0]).value == count_profile_dp(*corpus[0]).value


def test_block_checks_agree_with_the_forbidden_occurrences(rng):
    # the admissibility oracle's occurrences, one per placement of each
    # pattern: per cell one check per placement of two or more cells ending
    # there, and together the free symbols and checks allow exactly what no
    # occurrence ending there bans.  Shapes carry several patterns, and some
    # are one cell; with _DENSE = 1 every check compares keys
    box = [(x, y) for x in range(5) for y in range(4)]
    for _ in range(30):
        n = rng.choice((2, 3))
        shapes = [rng.sample(BRUTE_BOX, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        spec = SftSpec.make(n, [[(c, rng.randrange(n)) for c in shape]
                                for shape in shapes for _ in range(rng.randint(1, 3))])
        lat = FiniteLattice(rng.sample(box, 12))
        occurrences = [sorted(zip(idx, syms)) for idx, syms in forbidden_occurrences(lat, spec)]
        block = np.array([[rng.randrange(n) for _ in range(len(lat))] for _ in range(16)], dtype=np.uint8)
        for dense in (counting._DENSE, 1):
            with patch.object(counting, "_DENSE", dense):
                counting._constraint_table.cache_clear()
                try:
                    _, free, checks, read = counting._constraint_table(lat, spec, True)
                finally:
                    counting._constraint_table.cache_clear()
            for i in range(len(lat)):
                ending = [occ for occ in occurrences if occ[-1][0] == i]
                assert len(checks[i]) == len({tuple(c for c, _ in occ) for occ in ending if len(occ) > 1})
                allowed = np.repeat(free[i:i + 1], len(block), axis=0)
                for check in checks[i]:
                    allowed &= check(block)
                assert allowed.tolist() == [
                    [not any(occ[-1][1] == s and all(row[c] == t for c, t in occ[:-1]) for occ in ending)
                     for s in range(n)] for row in block.tolist()]
            assert read.tolist() == [any(i == c for occ in occurrences for c, _ in occ[:-1])
                                     for i in range(len(lat))]


def test_constraint_table_compiles_each_shape_once():
    # a 3-colouring on a holey rectangle: two shapes of three patterns each.
    # All placements of a shape share one table (keys and bans past
    # _DENSE), and the search's checks one banned dict
    no_equal = SftSpec.make(3, [[((0, 0), a), (d, a)] for a in range(3) for d in ((1, 0), (0, 1))])
    lat = rectangle((0, 0), 5, 4).difference(FiniteLattice([(2, 1)]))
    pairs = sum(len(placements(FiniteLattice([(0, 0), d]), lat)) for d in ((1, 0), (0, 1)))
    for dense, shared in ((counting._DENSE, lambda c: c.args[1:-1]), (1, lambda c: c.args[:-1])):
        with patch.object(counting, "_DENSE", dense):
            counting._constraint_table.cache_clear()
            try:
                _, _, checks, _ = counting._constraint_table(lat, no_equal, True)
                _, _, searches = counting._constraint_table(lat, no_equal, False)
            finally:
                counting._constraint_table.cache_clear()
        placed = [c for cs in checks for c in cs]
        assert len(placed) == pairs and len(set(map(len, map(shared, placed)))) == 1
        assert {c.func for c in placed} == {counting._lookup if dense > 1 else counting._compare}
        assert len({id(obj) for c in placed for obj in shared(c)}) == 2 * len(shared(placed[0]))
        assert sum(map(len, searches)) == pairs
        assert len({id(banned) for cs in searches for _, banned in cs}) == 2


def test_block_search_memory_is_bounded():
    # 2**20 assignments, all admissible: the blocks in flight, not the count,
    # bound the memory
    tracemalloc.start()
    try:
        assert count_bruteforce(rectangle((0, 0), 4, 5), full_shift(2)).value == 2**20
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # every cell but the last is read and built: symbol 2 is banned alone,
    # so its dominoes never bite and all 2**20 patterns over {0, 1} pass
    spec = SftSpec.make(3, [[((0, 0), 2)], [((0, 0), 2), ((1, 0), 2)], [((0, 0), 2), ((0, 1), 2)]])
    tracemalloc.start()
    try:
        assert count_bruteforce(rectangle((0, 0), 4, 5), spec, budget=3**20).value == 2**20
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # a replay counts under budget 2**60: only the free cells are searched
    spec = period_forcing_horizontal()
    verdict = verify_block_gluing(spec, gap=1, window=2, extent=4)
    assert replay_counterexample(spec, verdict.counterexample) == 0


def test_extension_search_tries_safe_symbols_first():
    # 3 is safe: filling every free cell with it extends the fixed cell at
    # once, where trying 0, 1 and 2 first overran a budget of N per cell
    spec = SftSpec.make(4, [[((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((2, 1), 1)],
                            [((0, 0), 0), ((2, 2), 1)],
                            [((0, 0), 1), ((1, 0), 1), ((1, 1), 0), ((2, 1), 1)]])
    ring = dilate(rectangle((0, 0), 1, 1), 2)
    assert admissible_extension_exists(ring, spec, {(0, 0): 1}, budget=4 * len(ring))


# ---------------------------------------------------------------------------
# profile DP vs brute force
# ---------------------------------------------------------------------------


def corpus(rng):
    shapes = [
        rectangle((0, 0), 4, 4),
        rectangle((0, 0), 16, 1),
        rectangle((0, 0), 1, 16),
        rectangle((0, 0), 8, 2),
        lshape(2),
        staircase(2),
        omega_q(2, 1),
        omega_q(2, 2),
        FiniteLattice([(0, 0), (1, 1), (2, 2), (3, 3)]),
    ]
    shapes += [random_connected_lattice(rng, 16) for _ in range(25)]
    return [s for s in shapes if len(s) <= 16]


@pytest.mark.parametrize("spec", [GM_H, GM_V, full_shift(2)], ids=lambda s: s.name)
def test_dp_equals_bruteforce_on_corpus(spec, rng):
    for lat in corpus(rng):
        assert count_profile_dp(lat, spec).value == count_bruteforce(lat, spec).value


def test_dp_equals_bruteforce_two_axis_spec(rng):
    # hard-square style spec: both horizontal and vertical 11 forbidden,
    # exercising the broken-profile sweep rather than the run product
    spec = SftSpec.make(
        2,
        [[((0, 0), 1), ((1, 0), 1)], [((0, 0), 1), ((0, 1), 1)]],
        name="hard-square",
    )
    assert spec.pure_axis is None
    for lat in corpus(rng)[:18]:
        assert count_profile_dp(lat, spec).value == count_bruteforce(lat, spec).value


def test_dp_diagonal_pair_spec(rng):
    spec = SftSpec.make(2, [[((0, 0), 1), ((1, 1), 1)]], name="diag")
    for lat in corpus(rng)[:12]:
        assert count_profile_dp(lat, spec).value == count_bruteforce(lat, spec).value


def test_dp_antidiagonal_pair_spec(rng):
    spec = SftSpec.make(2, [[((0, 1), 1), ((1, 0), 1)]], name="antidiag")
    for lat in corpus(rng)[:12]:
        assert count_profile_dp(lat, spec).value == count_bruteforce(lat, spec).value


def test_dp_full_2x2_block_spec(rng):
    spec = SftSpec.make(
        2, [[((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((1, 1), 1)]], name="no-2x2-ones"
    )
    for lat in corpus(rng)[:12]:
        assert count_profile_dp(lat, spec).value == count_bruteforce(lat, spec).value


def test_rectangle_row_product():
    for m in range(1, 9):
        for n in range(1, 9):
            expected = fib_a(m) ** n
            assert count_profile_dp(rectangle((0, 0), m, n), GM_H).value == expected


def test_wedge_counts():
    assert count_profile_dp(omega_q(2, 1), GM_H).value == 64
    assert count_profile_dp(omega_q(2, 2), GM_H).value == 3969
    assert count_bruteforce(omega_q(2, 2), GM_H).value == 3969


BOX3 = [(x, y) for x in range(3) for y in range(3)]


QUADS = SftSpec.make(2, [[(c, 1) for c in cells] for cells in combinations(BOX3, 4)])


def test_dp_sweeps_wide_shapes():
    # the skip pair reaches back two columns, and the sweep's state with it
    square = rectangle((0, 0), 3, 3)
    spec = SftSpec.make(2, [[((0, 0), 1), ((2, 0), 1)]], name="skip-pair")
    assert count_profile_dp(square, spec).value == count_bruteforce(square, spec).value
    # 63 placed shapes sweep with int64 shape bits, 64 with Python ints
    assert len({pat.shape for pat in QUADS.forbidden}) == len(QUADS.forbidden) == 97
    for k in (63, 64, 97):
        spec = SftSpec.make(2, QUADS.forbidden[:k])
        exact = count_bruteforce(square, spec).value
        assert count_profile_dp(square, spec).value == exact
        assert count(square, spec).value == exact
    assert count_profile_dp(rectangle((0, 0), 6, 6), QUADS).value == 73948482


# the shapes of two to five cells of the 3x3 box, each once up to translation
BOX3_SHAPES = sorted({tuple(sorted((x - min(c[0] for c in cells), y - min(c[1] for c in cells))
                                   for x, y in cells))
                      for size in range(2, 6) for cells in combinations(BOX3, size)})


@settings(max_examples=15, deadline=None)
@given(st.integers(64, 120), st.randoms(use_true_random=False))
def test_sweep_takes_any_number_of_shapes(k, rnd):
    # k shapes of the 3x3 box with random symbols, the first cell's 1 (so
    # all 0s stay admissible), on a 4x4 square with at most two holes where
    # more than 63 of them are placed: the shape bits pass int64
    spec = SftSpec.make(2, [[(c, rnd.randrange(2) if i else 1) for i, c in enumerate(cells)]
                            for cells in rnd.sample(BOX3_SHAPES, k)])
    square = [(x, y) for x in range(4) for y in range(4)]
    lat = rectangle((0, 0), 4, 4).difference(FiniteLattice(rnd.sample(square, rnd.randint(0, 2))))
    assume(sum(1 for pat in spec.forbidden if placements(pat.shape, lat)) > 63)
    exact = count_bruteforce(lat, spec).value
    assert exact > 0
    assert count_profile_dp(lat, spec).value == exact
    assert count_profile_dp(lat.transpose(), spec.transpose()).value == exact
    assert log_count(lat, spec) == pytest.approx(math.log(exact), rel=1e-12)


def test_dp_three_cell_window_spec(rng):
    # an L-shaped forbidden pattern inside the 2x2 window
    spec = SftSpec.make(2, [[((0, 0), 1), ((1, 0), 0), ((0, 1), 1)]], name="elbow")
    for lat in corpus(rng)[:12]:
        assert count_profile_dp(lat, spec).value == count_bruteforce(lat, spec).value


WINDOW = [(0, 0), (1, 0), (0, 1), (1, 1)]
HARD_SQUARE = SftSpec.make(
    2, [[((0, 0), 1), ((1, 0), 1)], [((0, 0), 1), ((0, 1), 1)]], name="hard-square"
)


@st.composite
def window_specs(draw):
    """Two-axis 2x2-window specs, N in {2, 3}, 1-5 patterns (some single-cell)."""
    n = draw(st.sampled_from((2, 3)))
    pattern = st.lists(st.tuples(st.sampled_from(WINDOW), st.integers(0, n - 1)),
                       min_size=1, max_size=4, unique_by=lambda cell: cell[0])
    spec = SftSpec.make(n, draw(st.lists(pattern, min_size=1, max_size=5)))
    assume(spec.pure_axis is None)
    return spec


@settings(max_examples=150, deadline=None)
@given(window_specs(), st.randoms(use_true_random=False))
def test_sweep_matches_oracle_on_random_window_specs(spec, rnd):
    lat = random_connected_lattice(rnd, 12)
    exact = count_profile_dp(lat, spec).value
    assert exact == count_bruteforce(lat, spec).value
    assert count_profile_dp(lat.transpose(), spec.transpose()).value == exact
    if exact == 0:
        assert log_count(lat, spec) == -math.inf
    else:
        assert log_count(lat, spec) == pytest.approx(math.log(exact), rel=1e-12)


@st.composite
def box3_specs(draw):
    """Specs whose 1-4-cell shapes lie in a 3x3 box, N in {2, 3}, 1-4 patterns."""
    n = draw(st.sampled_from((2, 3)))
    pattern = st.lists(st.tuples(st.sampled_from(BOX3), st.integers(0, n - 1)),
                       min_size=1, max_size=4, unique_by=lambda cell: cell[0])
    return SftSpec.make(n, draw(st.lists(pattern, min_size=1, max_size=4)))


def holey_clusters(rnd, cells: int) -> FiniteLattice:
    """Two random boxes with holes, 0-7 columns apart and offset in rows,
    at most `cells` cells in all."""
    boxes = [(rnd.randint(1, 4), rnd.randint(1, 3)) for _ in range(2)]
    gap, dy = rnd.randint(0, 7), rnd.randint(-3, 3)
    origins = [(0, 0), (boxes[0][0] + gap, dy)]
    points = [(ox + x, oy + y) for (ox, oy), (w, h) in zip(origins, boxes)
              for x in range(w) for y in range(h) if rnd.random() < 0.8]
    return FiniteLattice(rnd.sample(points, min(cells, len(points))))


def row_convex_cells(rnd, cells: int) -> FiniteLattice:
    """Up to 3 rectangles stacked upwards at random x offsets, some with a
    gap of empty rows between them, cut to the first `cells` cells in (y, x)
    order: every row keeps one run."""
    points, y = [], 0
    for _ in range(rnd.randint(1, 3)):
        x, w, h = rnd.randint(-3, 3), rnd.randint(1, 4), rnd.randint(1, 3)
        points += [(x + i, y + j) for j in range(h) for i in range(w)]
        y += h + rnd.choice((0, 1, 2))
    return FiniteLattice(points[:cells])


@settings(max_examples=120, deadline=None)
@given(box3_specs(), st.randoms(use_true_random=False))
def test_sweep_matches_oracle_on_random_box3_specs(spec, rnd):
    # shapes up to 3x3 reach back past the frontier: the state holds them.
    # On a lattice with one run per row the sweep takes its placements from
    # row meets alone, and the brute force, for an independent count, from
    # the coverage kernel
    cells = 12 if spec.alphabet_size == 2 else 8
    for lat, convex in ((holey_clusters(rnd, cells), False), (row_convex_cells(rnd, cells), True)):
        lat._truns      # the sweep reads the transpose, which the kernel builds
        no_meet = meet_off()
        kernel_off = patch("sftent.lattice._cover", side_effect=AssertionError("coverage kernel called"))
        with no_meet if convex else nullcontext():
            exact = count_bruteforce(lat, spec).value
        with kernel_off if convex else nullcontext():
            assert count_profile_dp(lat, spec).value == exact
        assert count_profile_dp(lat.transpose(), spec.transpose()).value == exact
        if exact == 0:
            assert log_count(lat, spec) == -math.inf
        else:
            assert log_count(lat, spec) == pytest.approx(math.log(exact), rel=1e-12)


def test_sweep_l_triomino_counts():
    # an L-triomino of 1s and a 1x3 run of 0s, counted by brute force before
    # the sweep took shapes past a 2x2 window
    spec = SftSpec.make(2, [[((0, 0), 1), ((1, 0), 1), ((0, 1), 1)],
                            [((0, 0), 0), ((1, 0), 0), ((2, 0), 0)]])
    for (m, n), value in {(4, 4): 5979, (5, 4): 40504, (6, 4): 245631}.items():
        assert count_profile_dp(rectangle((0, 0), m, n), spec).value == value
        assert count_profile_dp(rectangle((0, 0), n, m), spec.transpose()).value == value


A006506 = [1, 2, 7, 63, 1234, 55447, 5598861, 1280128950, 660647962955, 770548397261707,
           2030049051145980050, 12083401651433651945979, 162481813349792588536582997,
           4935961285224791538367780371090, 338752110195939290445247645371206783,
           52521741712869136440040654451875316861275,
           18396766424410124752958806046933947217821482942]


def test_sweep_hard_squares_oeis_a006506():
    # exact weights are int64 up to 10 x 10 (the count is below 2**63) and
    # turn into Python ints part of the way through 11 x 11 and beyond
    for n in range(1, 17):
        assert count_profile_dp(rectangle((0, 0), n, n), HARD_SQUARE).value == A006506[n]


@pytest.mark.parametrize("n, lengths",
                         [(2, range(60, 67)), (3, (39, 40, 41, 45)), (5, (27, 28, 29)),
                          (4, (32, 33, 34)), (7, (23, 24, 25))])
def test_sweep_exact_weights_past_int64(n, lengths):
    # a diagonal pair places nowhere on one row, so the count is n ** L.
    # Each step merges the state's n weights, n ** (k - 1) each after k
    # cells, and the column of weights leaves int64 at the first merge that
    # could pass 2**63 - 1: from L = 64 (n = 2), 41 (n = 3), 33 (n = 4),
    # 29 (n = 5) and 24 (n = 7).  The sweep scans the weights only once a
    # bound that grows n-fold a merge passes that, so a bound that grew
    # slower than the merges of 4 and 7 sources would miss the switch
    spec = SftSpec.make(n, [[((0, 0), 1), ((1, 1), 1)]])
    assert spec.pure_axis is None
    for length in lengths:
        row = rectangle((0, 0), length, 1)
        assert count_profile_dp(row, spec).value == n ** length
        assert count_profile_dp(row.transpose(), spec.transpose()).value == n ** length
        assert log_count(row, spec) == pytest.approx(length * math.log(n), rel=1e-12)


def test_sweep_log_counts_bit_for_bit():
    # floats pinned to the last bit: a merge that adds a group's weights in
    # another order (say w0 + (w1 + w2)) moves the 5-symbol value by one ulp
    spec = SftSpec.make(5, [[((0, 0), 1), ((1, 1), 4)], [((0, 0), 2), ((1, 0), 1)]])
    holes = {(0, 4), (1, 18), (1, 19), (2, 2), (2, 20), (2, 21), (2, 23)}
    lat = FiniteLattice([(x, y) for x in range(3) for y in range(25) if (x, y) not in holes])
    assert repr(log_count(lat, spec)) == "106.04214465604522"
    # 1,600 cells: the total passes 1e12 and is renormalised many times
    assert repr(log_count(rectangle((0, 0), 16, 100), HARD_SQUARE)) == "659.834559702015"


def test_sweep_values_stay_bit_for_bit():
    # exact counts and log_count reprs on the heavier builtin cases, as the
    # sweep gave them while its state also held the frontier plus one: a
    # change to the state or to the order of summation must not move them
    colouring = SftSpec.make(3, [[((0, 0), a), (d, a)] for a in range(3) for d in ((1, 0), (0, 1))])
    omega = int(
        "15231150410704456017922953852636329236124470460178599484154920986528423206992951"
        "60220916615736892820734164986488350715236468850998450352904522908093505709955650"
        "07834807089368359442096749012359067093500022044370841964130242580294645122677868"
        "44783457910444583846743690698981417890627533648128139244191007260251263488681464"
        "76771236492689716407273721318463906168362160833852248256028")
    for lat, spec, exact, log in (
            (rectangle((0, 0), 16, 16), HARD_SQUARE,
             18396766424410124752958806046933947217821482942, "106.5285040960995"),
            (omega_q(2, 9), HARD_SQUARE, omega, "870.7979227586403"),
            (rectangle((0, 0), 8, 8), colouring, 40724629633188, "31.337854176039833"),
            (lshape(4), L_TRIOMINO_RUN, 1295012623386330299191138, "55.52056267474976")):
        assert count_profile_dp(lat, spec).value == exact
        assert repr(log_count(lat, spec)) == log
    assert repr(log_count(rectangle((0, 0), 16, 400), HARD_SQUARE)) == "2635.9276152512516"


def test_sweep_single_cell_bans_large_alphabets():
    # symbols banned outright leave hard squares over the two symbols left
    pairs = [[((0, 0), 1), ((1, 0), 1)], [((0, 0), 1), ((0, 1), 1)]]
    six = SftSpec.make(6, [[((0, 0), s)] for s in range(2, 6)] + pairs)
    assert (count_profile_dp(rectangle((0, 0), 24, 3), six).value
            == count_profile_dp(rectangle((0, 0), 24, 3), HARD_SQUARE).value)
    # hard squares on symbols 126 and 127 of 128: frontier codes reach
    # 128**10 - 1 >= 2**63 on 9 x 9, so they need arbitrary-precision codes
    top_pairs = [[((0, 0), 127), ((1, 0), 127)], [((0, 0), 127), ((0, 1), 127)]]
    wide = SftSpec.make(128, [[((0, 0), s)] for s in range(126)] + top_pairs)
    assert (count_profile_dp(rectangle((0, 0), 9, 9), wide).value
            == count_profile_dp(rectangle((0, 0), 9, 9), HARD_SQUARE).value)
    # 6**25 >= 2**63 at the full frontier of 24: one admissible pattern
    only_zero = SftSpec.make(6, [[((0, 0), s)] for s in range(1, 6)]
                             + [[((0, 0), 1), ((1, 1), 1)]])
    square = rectangle((0, 0), 24, 24)
    assert count_profile_dp(square, only_zero).value == 1
    assert log_count(square, only_zero) == 0.0


def test_sweep_skips_absent_stretches():
    # two cells in a 21 x 100001 and a 2**26 x 1 bounding box: the sweep lays
    # out only the lattice's own columns, a long empty stretch shortened to
    # two, so it costs time and memory in cells, not in its box (about 10 s
    # when every box cell was swept; 256 MiB at 2**26 with per-box arrays)
    for lat in (FiniteLattice([(0, 0), (20, 10**5)]), FiniteLattice([(0, 0), (2**26, 0)])):
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            assert count(lat, HARD_SQUARE).value == 4
            assert log_count(lat, HARD_SQUARE) == math.log(4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - t0
        assert elapsed < 2, f"two cells in a long bounding box took {elapsed:.1f}s"
        assert peak < 16 * 2**20, (
            f"two cells in a long bounding box peaked at {peak / 2**20:.1f} MiB")
    # far-apart clusters factorise across the skipped stretches, even more
    # than 2**63 columns apart
    parts = [rectangle((0, 0), 3, 3), rectangle((18, 5000), 3, 2), FiniteLattice([(9, 70000)])]
    lat = parts[0].union(parts[1]).union(parts[2])
    assert count(lat, HARD_SQUARE).value == math.prod(
        count_bruteforce(p, HARD_SQUARE).value for p in parts)
    ends = [rectangle((-2**63, 0), 2, 3), rectangle((2**62 + 5, 1), 3, 3)]
    assert count(ends[0].union(ends[1]), HARD_SQUARE).value == math.prod(
        count_bruteforce(p, HARD_SQUARE).value for p in ends)


def test_sweep_bound_is_its_state_count_not_its_frontier():
    # a 25 x 25 bounding box, but no two diagonal cells share a window side:
    # few states, every pattern admissible, past the brute-force budget too
    diagonal = FiniteLattice([(i, i) for i in range(25)])
    assert count(diagonal, HARD_SQUARE).value == 2**25
    # the frame of a 26 x 26 square is a 100-cycle: its hard-square count is
    # the number of independent sets of that cycle, the Lucas number L_100
    frame = rectangle((0, 0), 26, 26).difference(rectangle((1, 1), 24, 24))
    lucas = [2, 1]
    for _ in range(99):
        lucas.append(lucas[-1] + lucas[-2])
    assert len(frame) == 100
    assert count(frame, HARD_SQUARE).value == lucas[100]
    assert log_count(frame, HARD_SQUARE) == pytest.approx(math.log(lucas[100]), rel=1e-12)


def test_sweep_refuses_steps_past_the_budget():
    # a million symbols on 3 x 3: the second cell would face 10**12 candidate
    # successors, refused before any array is allocated
    spec = SftSpec.make(10**6, [[((0, 0), 1), ((1, 1), 1)]])
    square = rectangle((0, 0), 3, 3)
    for route in (count_profile_dp, log_count, count):
        with pytest.raises(BudgetExceeded):
            route(square, spec)
    # 4096 symbols on an L of two 101-cell arms: every row is held, so either
    # way a domino along one arm reaches back a frontier of 101 positions:
    # 4096 * 4096 candidates, each code of 101 digits in 19 words, are
    # refused by their words, not their number
    wide = SftSpec.make(4096, [[((0, 0), 1), ((1, 0), 1)], [((0, 0), 1), ((0, 1), 1)]])
    reach = FiniteLattice([(i, 0) for i in range(101)] + [(0, i) for i in range(101)])
    assert _sweep_bans(reach, wide)[:3] == (101, object, 19)     # depth, dtype, words
    for route in (count_profile_dp, log_count, count):
        with pytest.raises(BudgetExceeded):
            route(reach, wide)
    # three bare corners place no domino: the state reads nothing back, one
    # digit, and the sweep counts them (refused while it held 102 digits)
    corners = FiniteLattice([(0, 0), (0, 100), (100, 0)])
    assert count_profile_dp(corners, wide).value == 4096 ** 3
    assert log_count(corners, wide) == pytest.approx(3 * math.log(4096), rel=1e-12)
    # empty rows close as empty columns shorten: two diagonal cells `gap`
    # apart lay out two rows, not gap + 1, and the sweep counts them (refused
    # while every row of the box was laid out, in codes of gap + 2 digits)
    for gap in (10**6, 2**40, 2**62):
        pair = FiniteLattice([(0, 0), (gap, gap)])
        assert _sweep_bans(pair, HARD_SQUARE).h == 2
        assert count_profile_dp(pair, HARD_SQUARE).value == 4
        assert log_count(pair, HARD_SQUARE) == math.log(4)


@settings(max_examples=60, deadline=None)
@given(window_specs(), st.randoms(use_true_random=False), st.booleans())
def test_sweep_factorises_over_far_clusters(spec, rnd, vertical):
    # 2-4 connected clusters along one axis, one to 10**6 empty columns apart:
    # no 2x2 window meets two, so the count is the product of theirs
    parts, x = [], 0
    for _ in range(rnd.randint(2, 4)):
        part = random_connected_lattice(rnd, 5)
        (ox, oy), w, _ = part.bbox
        part = part.translate((x - ox, rnd.randint(0, 8) - oy))
        parts.append(part.transpose() if vertical else part)
        x += w + rnd.choice((rnd.randint(1, 4), rnd.randint(1, 10**6)))
    lat = FiniteLattice(np.concatenate([p.coords for p in parts]))
    expected = math.prod(count_bruteforce(p, spec).value for p in parts)
    assert count_profile_dp(lat, spec).value == expected
    assert count_profile_dp(lat.transpose(), spec.transpose()).value == expected
    if expected == 0:
        assert log_count(lat, spec) == -math.inf
    else:
        assert log_count(lat, spec) == pytest.approx(math.log(expected), rel=1e-12)


def test_sweep_keeps_the_gaps_a_placement_spans():
    # a pair 4 columns apart, and vertical dominoes that make row-major dear:
    # between two 5 x 2 blocks, 3 empty columns stay laid out as the pair
    # spans them (13 columns), while 9 (more than the 5 that flush a state)
    # shorten to 5 (14 columns, not 19)
    spec = SftSpec.make(2, [[((0, 0), 1), ((4, 0), 1)], [((0, 0), 1), ((0, 1), 1)]])
    for start, positions, value in ((8, 26, 29889), (14, 28, 189 ** 2)):
        lat = FiniteLattice([(x, y) for x in [*range(5), *range(start, start + 5)] for y in range(2)])
        layout = _sweep_bans(lat, spec)
        assert (layout.depth, layout.h, len(layout.steps)) == (8, 2, positions)
        assert count_bruteforce(lat, spec).value == value
        assert count_profile_dp(lat, spec).value == value
        assert count_profile_dp(lat.transpose(), spec.transpose()).value == value
    # empty rows likewise: row-major a pair 5 apart keeps the 4 rows it
    # spans (h = 6), and with no placement the gap closes to one (h = 2)
    spec = SftSpec.make(2, [[((0, 0), 1), ((5, 0), 1)]])
    for far, value, h in ((5, 3 ** 3, 6), (9, 2 ** 6, 2)):
        lat = FiniteLattice([(x, y) for x in (0, far) for y in range(3)])
        assert _sweep_bans(lat, spec).h == h
        assert count_bruteforce(lat, spec).value == value
        assert count_profile_dp(lat, spec).value == value
        assert count_profile_dp(lat.transpose(), spec.transpose()).value == value


def test_sweep_refuses_reach_past_the_budget():
    # a placed pair reaching across most of the coordinate range: refused
    # before the column gaps, which would pass int64, are laid out
    spec = SftSpec.make(2, [[((0, 0), 1), ((2**63 - 2, 0), 1)]])
    lat = FiniteLattice([(-2**63, 0), (-1, 0), (2**63 - 3, 0)])
    with pytest.raises(BudgetExceeded):
        count_profile_dp(lat, spec)
    assert count(lat, spec).value == 6


L_TRIOMINO_RUN = SftSpec.make(2, [[((0, 0), 1), ((1, 0), 1), ((0, 1), 1)],
                                  [((0, 0), 0), ((1, 0), 0), ((2, 0), 0)]])


def test_sweep_orients_by_depth():
    # the state holds exactly the positions a step reads back.  The horizontal
    # 1x3 run reaches back 2h column-major but 2 row-major, and the L-triomino
    # w row-major: on lshape(4), a 16 x 16 box, 16 digits rather than 32
    # (17 while the state also had to hold the frontier plus one)
    lat = lshape(4)
    assert _sweep_bans(lat, L_TRIOMINO_RUN).depth == 16
    assert _sweep_bans(lat.transpose(), L_TRIOMINO_RUN.transpose()).depth == 16
    assert (count_profile_dp(lat, L_TRIOMINO_RUN).value
            == count_profile_dp(lat.transpose(), L_TRIOMINO_RUN.transpose()).value)
    # 5 x 4 boxes with holes: column-major, along the box, the run needs 8;
    # row-major the L-triomino needs w = 5 (6 with the frontier-plus-one floor)
    for holes in ((), ((2, 1),), ((0, 3), (3, 2), (4, 0))):
        lat = rectangle((0, 0), 5, 4).difference(FiniteLattice(list(holes)))
        assert _sweep_bans(lat, L_TRIOMINO_RUN).depth == 5
        exact = count_bruteforce(lat, L_TRIOMINO_RUN).value
        assert count_profile_dp(lat, L_TRIOMINO_RUN).value == exact
        assert count_profile_dp(lat.transpose(), L_TRIOMINO_RUN.transpose()).value == exact
        assert log_count(lat, L_TRIOMINO_RUN) == pytest.approx(math.log(exact), rel=1e-12)
    # hard squares read one column back, h positions: the frontier runs along
    # the shorter side, 4 digits on 5 x 4 either way (5 with the old floor)
    square = rectangle((0, 0), 5, 4)
    assert _sweep_bans(square, HARD_SQUARE).depth == 4
    assert _sweep_bans(square.transpose(), HARD_SQUARE.transpose()).depth == 4
    # a tie, when no shape of two or more cells has a placement (depth 1),
    # takes the shorter frontier: on a 5 x 4 box, 4 rows either way
    apart = SftSpec.make(2, [[((0, 0), 1), ((5, 0), 1)], [((0, 0), 1), ((0, 5), 1)]])
    for lat, s in ((square, apart), (square.transpose(), apart.transpose())):
        assert (_sweep_bans(lat, s).depth, _sweep_bans(lat, s).h) == (1, 4)
    # rows no placed shape spans close to one: three corners hold two rows
    corners = FiniteLattice([(0, 0), (4, 0), (0, 3)])
    layout = _sweep_bans(corners, HARD_SQUARE)
    assert (layout.depth, layout.h) == (1, 2)


THREE_SYMBOLS = SftSpec.make(3, [[((0, 0), 1), ((1, 1), 2)], [((1, 0), 0), ((0, 1), 0)],
                                 [((0, 0), 2), ((0, 1), 2), ((1, 0), 1)], [((0, 0), 0), ((1, 0), 1)],
                                 [((0, 0), 2), ((1, 0), 2)], [((0, 0), 1), ((0, 1), 1)]])


def test_sweep_step_cache_keys_on_the_incoming_states():
    # one hole in a middle column: the rows below it see the context and
    # merging flag they saw one column back, but other incoming states (the
    # hole's digit is always 0), and so does the next column's first row.
    # Under `equal` a step meets as many states as one column back, not the same
    equal = SftSpec.make(2, [[((0, 0), 0), ((0, 1), 1)], [((0, 0), 0), ((1, 0), 0), ((1, 1), 0)]])
    for spec, (w, h), hole in ((HARD_SQUARE, (5, 4), (2, 1)), (THREE_SYMBOLS, (5, 3), (2, 1)),
                               (equal, (4, 3), (1, 1))):
        lat = rectangle((0, 0), w, h).difference(FiniteLattice([hole]))
        exact = count_bruteforce(lat, spec).value
        assert count_profile_dp(lat, spec).value == exact
        assert count_profile_dp(lat.transpose(), spec.transpose()).value == exact
        assert log_count(lat, spec) == pytest.approx(math.log(exact), rel=1e-12)


def test_sweep_merging_step_with_no_successors():
    # no 0s, and two diagonal 1s: the first column holds, and (1, 1) has no
    # symbol left at a step whose oldest state cell (0, 0) is present
    spec = SftSpec.make(2, [[((0, 0), 0)], [((0, 0), 1), ((1, 1), 1)]])
    square = rectangle((0, 0), 3, 3)
    assert count_bruteforce(square, spec).value == 0
    assert count_profile_dp(square, spec).value == 0
    assert log_count(square, spec) == -math.inf


@st.composite
def lookup_specs(draw):
    """Specs of 1-3-cell shapes in a 3x3 box, 1-4 patterns, N in {2, 3, 5, 20}:
    with 20 symbols a 3-cell shape reads 2 digits, 20**2 * 20 table entries,
    past ``_DENSE``, so its context falls back to one mask per ban."""
    n = draw(st.sampled_from((2, 3, 5, 20)))
    pattern = st.lists(st.tuples(st.sampled_from(BOX3), st.integers(0, n - 1)),
                       min_size=1, max_size=3, unique_by=lambda cell: cell[0])
    return SftSpec.make(n, draw(st.lists(pattern, min_size=1, max_size=4)))


@settings(max_examples=80, deadline=None)
@given(lookup_specs(), st.randoms(use_true_random=False))
def test_sweep_ban_lookups_equal_per_ban_masks(spec, rnd):
    # every context's compiled check against the per-ban masks (forced by a
    # zero table cap) on random state codes, then whole sweeps both ways
    n = spec.alphabet_size
    lat = holey_clusters(rnd, 12 if n == 2 else 7)
    layout = _sweep_bans(lat, spec)
    with patch.object(counting, "_DENSE", 0):
        masks = _sweep_bans(lat, spec).steps
        try:
            exact, log = count_profile_dp(lat, spec).value, log_count(lat, spec)
        except BudgetExceeded:      # e.g. 20 symbols on a 5-cell frontier: 20**5 states
            exact = log = None
    codes = np.array(sorted({rnd.randrange(n ** layout.depth) for _ in range(300)}),
                     dtype=layout.dtype)
    for step, mask in zip(layout.steps, masks):
        assert (step is None) == (mask is None)
        if step is not None:
            assert mask[0].func is counting._ban_masks
            assert mask[1] == step[1]
            assert np.array_equal(step[0](codes), mask[0](codes))
    if exact is None:       # refused both ways
        with pytest.raises(BudgetExceeded):
            count_profile_dp(lat, spec)
        return
    assert count_profile_dp(lat, spec).value == exact
    assert repr(log_count(lat, spec)) == repr(log)
    if len(lat) * math.log2(n) <= 24:
        assert exact == count_bruteforce(lat, spec).value


def test_sweep_ban_lookups_fall_back_past_the_table_cap():
    # 20 symbols: an L-triomino reads two digits (8,000 entries), a domino one
    # (400): the L's contexts build a mask per ban, the others one table
    spec = SftSpec.make(20, [[((0, 0), 3), ((1, 0), 4), ((0, 1), 5)], [((0, 0), 7), ((0, 1), 7)]])
    lat = rectangle((0, 0), 3, 3)
    kinds = {step[0].func for step in _sweep_bans(lat, spec).steps if step is not None}
    assert kinds == {counting._ban_masks, counting._ban_lookup}
    exact, log = count_profile_dp(lat, spec).value, repr(log_count(lat, spec))
    with patch.object(counting, "_DENSE", 0):
        assert (count_profile_dp(lat, spec).value, repr(log_count(lat, spec))) == (exact, log)
    small = rectangle((0, 0), 2, 2)
    assert count_profile_dp(small, spec).value == count_bruteforce(small, spec).value


DIAGONAL_VERTICAL = [((0, 0), (1, 1)), ((1, 0), (0, 1)), ((0, 0), (0, 1)), ((0, 0), (0, 2)),
                     ((0, 0), (1, 0), (1, 1))]


@st.composite
def diagonal_vertical_specs(draw):
    """Diagonal, anti-diagonal and vertical shapes, N in {2, 3}: column-major
    the diagonal reads back h + 1, the state's oldest digit, while the other
    shapes, and every ban in the bottom row, read less."""
    n = draw(st.sampled_from((2, 3)))
    shape = st.sampled_from(DIAGONAL_VERTICAL)
    patterns = draw(st.lists(shape.flatmap(lambda cells: st.tuples(
        *[st.tuples(st.just(c), st.integers(0, n - 1)) for c in cells])), min_size=1, max_size=4))
    return SftSpec.make(n, [list(p) for p in patterns])


@settings(max_examples=80, deadline=None)
@given(diagonal_vertical_specs(), st.randoms(use_true_random=False))
def test_sweep_merges_first_where_no_ban_reads_the_dropped_digit(spec, rnd):
    lat = holey_clusters(rnd, 12 if spec.alphabet_size == 2 else 8)
    exact = count_bruteforce(lat, spec).value
    assert count_profile_dp(lat, spec).value == exact
    assert count_profile_dp(lat.transpose(), spec.transpose()).value == exact
    if exact == 0:
        assert log_count(lat, spec) == -math.inf
    else:
        assert log_count(lat, spec) == pytest.approx(math.log(exact), rel=1e-12)


def test_sweep_merge_first_steps_keep_every_value(monkeypatch):
    # on these rectangles the bottom row (and off-lattice positions) merge
    # before they extend; counts and log reprs are the ones the sweep gave
    # when every merging step extended first and grouped after
    spec = SftSpec.make(3, [[((0, 0), 1), ((1, 1), 2)], [((0, 0), 0), ((0, 1), 0)],
                            [((0, 0), 2), ((1, 2), 2)]])
    first = []

    def step(codes, here, merging, n, top):
        first.append(merging and not (here is not None and here[1]))
        return sweep_step(codes, here, merging, n, top)
    sweep_step = counting._sweep_step
    monkeypatch.setattr(counting, "_sweep_step", step)
    for (m, n), exact, log in (((6, 5), 59837796298, "24.814903343363664"),
                               ((7, 7), 85707137146465812, "38.98971249763565"),
                               ((5, 9), 3799721255130585, "35.873704105039494")):
        for lat, s in ((rectangle((0, 0), m, n), spec),
                       (rectangle((0, 0), n, m), spec.transpose())):
            first.clear()
            assert count_profile_dp(lat, s).value == exact
            assert repr(log_count(lat, s)) == log
            assert any(first)


@settings(max_examples=40, deadline=None)
@given(box3_specs(), st.integers(1, 4), st.integers(1, 6), st.booleans())
def test_sweep_run_counts_each_prefix_of_lines(spec, m, height, vertical):
    # Python-int weights carried through the run's plans total, after the
    # first k lines along the sweep's major axis (k * h positions), the count
    # on those lines alone: each ban is read at its last cell
    lat = rectangle((0, 0), m, height)
    if vertical:
        lat, spec = lat.transpose(), spec.transpose()
    layout = _sweep_bans(lat, spec)
    totals, weights = {}, np.ones(1, dtype=object)
    for t, _, plan in counting._sweep_run(layout, spec.alphabet_size, lambda states: False):
        weights = counting._carry(weights, plan)
        if (t + 1) % layout.h == 0:
            totals[(t + 1) // layout.h] = sum(weights.tolist())
    position = layout.position(lat.coords)
    for k in range(1, len(layout.steps) // layout.h + 1):     # past a run with no state left, 0
        lines = FiniteLattice(lat.coords[position < k * layout.h].tolist())
        assert totals.get(k, 0) == count_profile_dp(lines, spec).value


def test_extension_oracle_agrees_with_pinned_bruteforce(rng):
    # one constraint table for many calls: an extension exists exactly when
    # brute force with those cells pinned counts one
    for spec in (period_forcing_horizontal(), SftSpec.make(2, [[((0, 0), 0), ((1, 0), 0)],
                                                                [((0, 0), 1), ((1, 1), 1)]])):
        core = rectangle((0, 0), 2, 2)
        dilated = dilate(core, 1)
        points = list(core) + [(9, 9)]          # a point off the lattice is ignored
        exists = counting._extension_oracle(dilated, spec, points)
        for _ in range(20):
            symbols = [rng.randrange(spec.alphabet_size) for _ in points]
            pinned = count_bruteforce(dilated, spec, fixed=dict(zip(points, symbols))).value
            assert exists(symbols) == (pinned > 0)


def test_pinned_sweep_agrees_with_pinned_bruteforce(rng):
    # one sweep answers many queries: an extension exists exactly when
    # brute force with those cells pinned counts one
    for spec in (period_forcing_horizontal(), SftSpec.make(2, [[((0, 0), 0), ((1, 0), 0)],
                                                                [((0, 0), 1), ((1, 1), 1)]])):
        core = rectangle((0, 0), 2, 2)
        dilated = dilate(core, 1)
        points = list(core) + [(9, 9)]          # a point off the lattice is ignored
        symbols = np.array([[rng.randrange(spec.alphabet_size) for _ in points]
                            for _ in range(20)])
        exists, = counting._sweeps(dilated, spec, points, symbols,      # one sweep
                                   counting.DEFAULT_BUDGET, math.inf)
        for row, answer in zip(symbols.tolist(), exists.tolist()):
            pinned = count_bruteforce(dilated, spec, fixed=dict(zip(points, row))).value
            assert answer == (pinned > 0)


def far_clusters(rnd, cells: int) -> FiniteLattice:
    """Holey clusters, the second moved 10**6 columns further off."""
    lat = holey_clusters(rnd, cells)
    if len(lat) < 2:
        return lat
    split = sorted(int(x) for x in lat.coords[:, 0])[len(lat) // 2]
    return FiniteLattice([(x + 10**6 if x >= split else x, y) for x, y in lat.coords.tolist()])


def pinned_questions(spec, rnd, far: bool, vertical: bool):
    """A lattice of clusters, the spec (both transposed if `vertical`), 0-4
    points among the cells, holes and rims, and 1-12 rows of their symbols."""
    lat = (far_clusters if far else holey_clusters)(rnd, 10 if spec.alphabet_size == 2 else 7)
    if vertical:
        lat, spec = lat.transpose(), spec.transpose()
    near = sorted({(x + dx, y + dy) for x, y in lat.coords.tolist()     # cells, holes, rims
                   for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))})
    points = rnd.sample(near, min(len(near), rnd.randint(0, 4)))
    rows = [[rnd.randrange(spec.alphabet_size) for _ in points] for _ in range(rnd.randint(1, 12))]
    return lat, spec, points, np.array(rows, dtype=np.uint8).reshape(len(rows), len(points))


@settings(max_examples=60, deadline=None)
@given(box3_specs(), st.randoms(use_true_random=False), st.booleans(), st.booleans())
def test_pinned_sweep_matches_pinned_bruteforce(spec, rnd, far, vertical):
    # per query, a pinned sweep finds an extension exactly when brute force
    # with those cells fixed counts one; pins off the lattice are ignored,
    # and queries swept in chunks under a small budget answer alike
    lat, spec, points, symbols = pinned_questions(spec, rnd, far, vertical)
    exists, = counting._sweeps(lat, spec, points, symbols, counting.DEFAULT_BUDGET, math.inf)
    assert exists.dtype == bool and len(exists) == len(symbols)
    for row, answer in zip(symbols.tolist(), exists.tolist()):
        assert answer == (count_bruteforce(lat, spec, fixed=dict(zip(points, row))).value > 0)
    for budget in (16, 32, 64):
        try:        # each sweep the leading queries that fit
            chunks = list(counting._sweeps(lat, spec, points, symbols, budget, math.inf))
        except BudgetExceeded:      # a single query does not fit
            continue
        assert np.array_equal(np.concatenate(chunks), exists)
        with patch.object(counting, "_CELL_SEARCH_WEIGHTS", math.inf):    # sweeps only
            swept = list(counting._extensions(lat, spec, points, [symbols], budget))
        assert [len(c) for c in swept] == [len(c) for c in chunks]
        assert np.array_equal(np.concatenate(swept), exists)


@settings(max_examples=40, deadline=None)
@given(box3_specs(), st.randoms(use_true_random=False), st.booleans(), st.booleans(),
       st.integers(16, 1024))
def test_question_stream_answers_as_one_array(spec, rnd, far, vertical, budget):
    # the same questions split into 1-5 arrays, some of them empty, get the
    # answers of one array, or its refusal; an empty stream gets none
    lat, spec, points, symbols = pinned_questions(spec, rnd, far, vertical)
    pieces = np.split(symbols, sorted(rnd.randint(0, len(symbols)) for _ in range(rnd.randint(0, 4))))

    def answers(questions):
        try:
            return [a for chunk in counting._extensions(lat, spec, points, questions, budget)
                    for a in chunk.tolist()]
        except BudgetExceeded as refusal:
            return str(refusal)
    whole = answers([symbols])
    assert answers(pieces) == answers(iter(pieces)) == whole
    assert answers(iter(())) == []
    if not isinstance(whole, str):
        assert whole == [count_bruteforce(lat, spec, fixed=dict(zip(points, row))).value > 0
                         for row in symbols.tolist()]


def recording_sweeps(record):
    """``counting._sweeps``, calling ``record(len(answers))`` per sweep, and
    ``record(0)`` where the sweeps stop before their last query."""
    sweeps = counting._sweeps

    def recorded(lat, spec, points, symbols, *args):
        answered = 0
        for answers in sweeps(lat, spec, points, symbols, *args):
            record(len(answers))
            answered += len(answers)
            yield answers
        if answered < len(symbols):
            record(0)
    return recorded


def test_pinned_sweep_chunks_the_queries_that_fit(monkeypatch):
    # no-equal-neighbours along x on a 3 x 2 strip: each step holds at most
    # 3 states, so a budget of 3 * 3 * (1 + 2) words admits 2 queries a
    # sweep and one of 3 * 3 * (1 + 1) admits 1.  Past a smaller budget, or
    # where a sweep costs more than a search, each query is one search
    spec = SftSpec.make(3, [[((0, 0), a), ((1, 0), a)] for a in range(3)])
    lat = rectangle((0, 0), 3, 2)
    points = [(0, 0), (1, 0), (2, 1)]
    symbols = np.array(list(product(range(3), repeat=3)), dtype=np.uint8)
    expected = [count_bruteforce(lat, spec, fixed=dict(zip(points, row))).value > 0
                for row in symbols.tolist()]

    def sweeps(budget, work=math.inf):
        return counting._sweeps(lat, spec, points, symbols, budget, work)
    assert len(next(sweeps(3 * 3 * 3))) == 2
    assert len(next(sweeps(3 * 3 * 2))) == 1
    with pytest.raises(BudgetExceeded, match=r"\+ 1 query\) exceed budget 17"):
        next(sweeps(17))
    # `work` is per query answered: the steps at cells meet 16 states, so
    # all 27 queries cost 16 * 3 * (200 + 27) query weights
    cost = 16 * 3 * (counting._CANDIDATE_WEIGHTS + 27)
    assert [a.tolist() for a in sweeps(counting.DEFAULT_BUDGET, cost / 27)] == [expected]
    assert list(sweeps(counting.DEFAULT_BUDGET, cost / 27 - 1)) == []
    # one layout for all the sweeps of a call: 27 queries in 14 sweeps
    layouts = []

    def layout(*args):
        layouts.append(args)
        return sweep_bans(*args)
    sweep_bans = counting._sweep_bans
    with patch.object(counting, "_sweep_bans", layout):
        assert [len(a) for a in sweeps(3 * 3 * 3)] == [2] * 13 + [1]
    assert len(layouts) == 1
    # a search costs at least 6 cells * 1,000 query weights: a sweep of 27 or
    # of 2 queries costs less per query, one of a single query more.  A 0
    # marks sweeps that stop before their last query
    swept = []
    monkeypatch.setattr(counting, "_sweeps", recording_sweeps(swept.append))
    for budget, sweeps in ((2**24, [27]), (3 * 3 * 3, [2] * 13 + [0]), (3 * 3 * 2, [0]),
                           (17, [])):
        swept.clear()
        chunks = list(counting._extensions(lat, spec, points, [symbols], budget))
        assert swept == sweeps
        assert [len(c) for c in chunks] == [w for w in sweeps if w] + [1] * (27 - sum(sweeps))
        assert np.concatenate(chunks).tolist() == expected
    monkeypatch.setattr(counting, "_CELL_SEARCH_WEIGHTS", 0)     # every sweep stops
    searched = counting._extensions(lat, spec, points, [symbols])
    assert [len(c) for c in searched] == [1] * 27
    with pytest.raises(BudgetExceeded, match="search exceeds 2 cell assignments"):
        list(counting._extensions(lat, spec, points, [symbols], 2))


def test_sweep_cache_bound_refuses_nothing_the_step_budget_admits(monkeypatch):
    # at the smallest budget the steps admit, the cache holds far fewer steps
    # than the sweep takes: they are computed again, never refused
    square = rectangle((0, 0), 12, 12)
    value = 162481813349792588536582997
    demand, calls = [], []

    def step(codes, here, merging, n, top):
        calls.append(here)
        if here is not None:
            demand.append(len(codes) * n)
        return sweep_step(codes, here, merging, n, top)
    sweep_step = counting._sweep_step
    monkeypatch.setattr(counting, "_sweep_step", step)
    assert count_profile_dp(square, HARD_SQUARE).value == value
    cached_calls, tight = len(calls), max(demand)
    monkeypatch.setattr(counting, "DEFAULT_BUDGET", tight)
    calls.clear()
    assert count_profile_dp(square, HARD_SQUARE).value == value
    assert log_count(square, HARD_SQUARE) == pytest.approx(math.log(value), rel=1e-12)
    assert len(calls) > 2 * cached_calls
    monkeypatch.setattr(counting, "DEFAULT_BUDGET", tight - 1)
    with pytest.raises(BudgetExceeded, match="states"):
        count_profile_dp(square, HARD_SQUARE)


def test_sweep_cache_charges_each_array_once(monkeypatch):
    # a budget of exactly the words one column's cached arrays hold (the
    # successor codes and the intp plan indices, from their bytes) keeps the
    # whole column: a 12x12 hard-square sweep computes its first two columns
    # and no step after them.  Charging the key codes again beside the
    # previous row's successor codes, the same arrays, would recompute steps
    square = rectangle((0, 0), 12, 12)
    value = 162481813349792588536582997
    calls = []

    def step(codes, here, merging, n, top):
        dest, plan = sweep_step(codes, here, merging, n, top)
        calls.append((dest, plan))
        return dest, plan
    sweep_step = counting._sweep_step
    monkeypatch.setattr(counting, "_sweep_step", step)
    assert count_profile_dp(square, HARD_SQUARE).value == value
    assert len(calls) == 2 * 12

    def arrays(dest, plan):
        first, terms, after = plan
        return [dest, first, *[a for term in terms for a in term], *([] if after is None else [after])]
    for dest, plan in calls:
        assert all(a.dtype == np.intp for a in arrays(dest, plan)[1:])
    column = sum(a.nbytes // 8 for dest, plan in calls[12:] for a in arrays(dest, plan))
    monkeypatch.setattr(counting, "DEFAULT_BUDGET", column)
    calls.clear()
    assert count_profile_dp(square, HARD_SQUARE).value == value
    assert len(calls) == 2 * 12
    monkeypatch.setattr(counting, "DEFAULT_BUDGET", column - 1)
    calls.clear()
    assert count_profile_dp(square, HARD_SQUARE).value == value
    assert len(calls) > 2 * 12


def test_every_route_ignores_where_the_lattice_lies():
    # brute force, sweep, axis product and extendable counts far from the origin
    l3 = SftSpec.make(2, [[((0, 0), 1), ((1, 0), 1), ((0, 1), 1)],
                          [((0, 0), 0), ((1, 0), 0), ((2, 0), 0)]])
    lat = rectangle((0, 0), 4, 3).difference(FiniteLattice([(2, 1)]))
    far = lat.translate((2**40, -2**40))
    for spec in (HARD_SQUARE, GM_H, l3):
        assert count(far, spec).value == count(lat, spec).value
        assert count_bruteforce(far, spec).value == count_bruteforce(lat, spec).value
        assert count_extendable(far, spec, 1).value == count_extendable(lat, spec, 1).value
    assert count(far, HARD_SQUARE).value == count_bruteforce(lat, HARD_SQUARE).value


def test_axis_product_large_alphabet():
    # each length step costs O(N + forbidden pairs), not O(N**2): 2.4 s when
    # every pair of the 4,000 symbols was visited
    t0 = time.perf_counter()
    assert count(rectangle((0, 0), 3, 3), full_shift(4000)).value == 4000**9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1, f"full:4000 on 3x3 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def test_dispatch_uses_dp_for_large_golden_mean():
    result = count(rectangle((0, 0), 16, 16), GM_H)
    assert result.value == fib_a(16) ** 16


def test_dispatch_oracle_for_wide_shape():
    spec = SftSpec.make(2, [[((0, 0), 1), ((2, 0), 1)]], name="skip-pair")
    lat = rectangle((0, 0), 5, 4)  # 20 cells: within oracle budget
    got = count(lat, spec).value
    assert got == count_bruteforce(lat, spec).value


def test_dispatch_budget_exceeded():
    spec = SftSpec.make(2, [[((0, 0), 1), ((2, 0), 1)]], name="skip-pair")
    # a 100,001-cell diagonal stick: the sweep's layout and the brute force
    # both pass the budget, and the one error names both refusals
    with pytest.raises(BudgetExceeded, match="^profile sweep: .* code words .*; brute force: 2[*][*]100026 "):
        count(stick_augmented(5, (1, 1), 100000), spec)


def test_count_empty_lattice():
    # both engines count the one empty pattern, with a float log
    for spec in (GM_H, HARD_SQUARE):
        assert count(FiniteLattice(), spec).value == 1
        assert repr(log_count(FiniteLattice(), spec)) == "0.0"


# ---------------------------------------------------------------------------
# log-domain route
# ---------------------------------------------------------------------------


def test_log_count_matches_exact_counts(rng):
    for spec in (GM_H, GM_V, full_shift(2)):
        for lat in corpus(rng)[:14]:
            exact = count_profile_dp(lat, spec).value
            assert log_count(lat, spec) == pytest.approx(math.log(exact), rel=1e-12)


def test_log_count_matches_exact_generic_path(rng):
    spec = SftSpec.make(
        2, [[((0, 0), 1), ((1, 0), 1)], [((0, 0), 1), ((0, 1), 1)]], name="hard-square"
    )
    for lat in corpus(rng)[:12]:
        exact = count_profile_dp(lat, spec).value
        assert log_count(lat, spec) == pytest.approx(math.log(exact), rel=1e-12)


def test_log_count_closed_forms():
    assert log_count(rectangle((0, 0), 20, 20), GM_H) == pytest.approx(
        20 * math.log(17711), rel=1e-12
    )
    assert log_count(FiniteLattice(), GM_H) == 0.0
    assert log_count(rectangle((0, 0), 1, 50), GM_H) == pytest.approx(
        50 * math.log(2), rel=1e-12
    )


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_subadditivity_of_rectangle_counts():
    for spec in (GM_H, GM_V):
        table = {
            (m, n): count_profile_dp(rectangle((0, 0), m, n), spec).value
            for m in range(1, 11)
            for n in range(1, 11)
        }
        for m1 in range(1, 6):
            for m2 in range(1, 11 - m1):
                for n in range(1, 11):
                    assert table[(m1 + m2, n)] <= table[(m1, n)] * table[(m2, n)]
                    assert table[(n, m1 + m2)] <= table[(n, m1)] * table[(n, m2)]


def test_tessellation_lower_bound():
    # per-site log count of any plane-tiling shape dominates the strip limit
    log_g = math.log((1 + math.sqrt(5)) / 2)
    tiles = [rectangle((0, 0), m, n) for m in (1, 2, 5) for n in (1, 3)]
    tiles += [FiniteLattice([(0, 0), (1, 0), (0, 1)]), lshape(2), lshape(3)]
    for tile in tiles:
        per_site = log_count(tile, GM_H) / len(tile)
        assert per_site >= log_g - 1e-12


def test_disjoint_union_factorises():
    base = rectangle((0, 0), 3, 2)
    far = rectangle((10, 5), 2, 3)
    union = base.union(far)
    for spec in (GM_H, GM_V):
        assert (
            count_profile_dp(union, spec).value
            == count_profile_dp(base, spec).value * count_profile_dp(far, spec).value
        )


def test_disjoint_union_factorises_generic_path():
    spec = SftSpec.make(
        2, [[((0, 0), 1), ((1, 0), 1)], [((0, 0), 1), ((0, 1), 1)]], name="hard-square"
    )
    base = rectangle((0, 0), 3, 2)
    far = rectangle((0, 6), 2, 3)  # same bounding box column, distant rows
    union = base.union(far)
    assert (
        count_profile_dp(union, spec).value
        == count_profile_dp(base, spec).value * count_profile_dp(far, spec).value
    )


# ---------------------------------------------------------------------------
# extendable counts
# ---------------------------------------------------------------------------


def test_extendable_margin_zero_is_local():
    lat = rectangle((0, 0), 3, 3)
    res = count_extendable(lat, GM_H, 0)
    assert res.value == count(lat, GM_H).value
    assert res.mode == "extendable" and res.margin == 0


def test_extendable_golden_mean_equals_local():
    # derived oracle: enumerate admissible 5x5 dilations and project to the core
    lat = rectangle((0, 0), 3, 3)
    local = count(lat, GM_H).value
    for margin in (1, 2):
        assert count_extendable(lat, GM_H, margin).value == local
    # a 32 x 32 dilation: deeper than any recursive search could go
    assert count_extendable(rectangle((0, 0), 2, 2), GM_H, 15).value == 9


def test_searches_past_the_budget_hand_the_queries_left_to_sweeps(monkeypatch):
    # every sweep costs more than a search here, so the queries are
    # searched; where the fifth search runs past its budget, the queries
    # left go to sweeps at any cost, and where those refuse too, the
    # search's refusal stands
    spec = SftSpec.make(3, [[((0, 0), a), ((1, 0), a)] for a in range(3)])
    lat = rectangle((0, 0), 3, 2)
    points = [(0, 0), (1, 0), (2, 1)]
    symbols = np.array(list(product(range(3), repeat=3)), dtype=np.uint8)
    expected = [count_bruteforce(lat, spec, fixed=dict(zip(points, row))).value > 0
                for row in symbols.tolist()]
    oracle = counting._extension_oracle

    def refusing(*args):
        exists, asked = oracle(*args), []

        def refuse_fifth(row):
            asked.append(row)
            if len(asked) == 5:
                raise BudgetExceeded("search exceeds its budget")
            return exists(row)
        return refuse_fifth
    monkeypatch.setattr(counting, "_CELL_SEARCH_WEIGHTS", 0)
    monkeypatch.setattr(counting, "_extension_oracle", refusing)
    chunks = list(counting._extensions(lat, spec, points, [symbols]))
    assert [len(c) for c in chunks] == [1] * 4 + [23]
    assert np.concatenate(chunks).tolist() == expected
    with pytest.raises(BudgetExceeded, match="search exceeds its budget"):
        list(counting._extensions(lat, spec, points, [symbols], 3 * 3 * 2 - 1))


def test_extension_search_enforces_budget():
    square = rectangle((0, 0), 6, 6)
    with pytest.raises(BudgetExceeded):
        admissible_extension_exists(square, GM_H, {(0, 0): 1}, budget=1)
    assert admissible_extension_exists(square, GM_H, {(0, 0): 1}, budget=100)
    with pytest.raises(BudgetExceeded):     # no safe symbol, so the search runs
        count_extendable(rectangle((0, 0), 1, 1), period_forcing_horizontal(), 1, budget=4)


def test_extendable_count_refuses_before_the_dilation_table(monkeypatch):
    # 2**900 core patterns: refused before any set-up, the core's constraint
    # table or the dilation's sweep layout
    def setup(*args):
        raise AssertionError("set up before the budget check")
    monkeypatch.setattr(counting, "_constraint_table", setup)
    monkeypatch.setattr(counting, "_sweep_bans", setup)
    with pytest.raises(BudgetExceeded):
        count_extendable(rectangle((0, 0), 30, 30), period_forcing_horizontal(), 1)


def test_extendable_count_with_a_safe_symbol_builds_no_dilation(monkeypatch):
    # the local count, whatever the margin; a margin whose dilation leaves
    # the coordinate range raises the same ValueError as the dilation
    def build(*args):
        raise AssertionError("dilation built")
    square = rectangle((0, 0), 2, 2)
    message = "lattice coordinates must lie in .* got -9223372036854775806..9223372036854775807"
    with pytest.raises(ValueError, match=message):
        dilate(square, 2**63 - 2)
    monkeypatch.setattr(counting, "dilate", build)
    result = count_extendable(square, GM_H, 10**9)
    assert (result.value, result.mode, result.margin) == (9, "extendable", 10**9)
    with pytest.raises(ValueError, match=message):
        count_extendable(square, GM_H, 2**63 - 2)
    with pytest.raises(ValueError, match=message):
        count_extendable(square, period_forcing_horizontal(), 2**63 - 2)


def test_extension_questions_go_to_searches_where_a_sweep_costs_more(monkeypatch):
    # a loose ring of margin 3 has over a million frontier states, where a
    # search finds each witness at once: its sweep stops and searches answer.
    # The 1,296 pairs of a no-equal-neighbours gluing offset go to one sweep
    routes = []
    oracle = counting._extension_oracle

    def searched(*args):
        routes.append("search")
        return oracle(*args)
    monkeypatch.setattr(counting, "_sweeps",
                        recording_sweeps(lambda size: routes.append("sweep" if size else "stop")))
    monkeypatch.setattr(counting, "_extension_oracle", searched)
    loose = SftSpec.make(3, [[((0, 0), 0), ((2, 0), 0), ((1, 1), 0)],
                             [((0, 0), 0), ((2, 0), 0), ((2, 1), 2)],
                             [((0, 0), 1), ((0, 1), 0), ((0, 2), 1)],
                             [((1, 0), 1), ((0, 1), 1), ((2, 1), 1)]])
    assert count_extendable(FiniteLattice([(0, 0)]), loose, 3).value == 3
    assert routes == ["stop", "search"]
    routes.clear()
    no_equal_h = SftSpec.make(3, [[((0, 0), a), ((1, 0), a)] for a in range(3)])
    verdict = verify_block_gluing(no_equal_h, 2, 2, 3, "horizontal")
    assert verdict.verified and verdict.pairs_checked == 1296 * verdict.offsets_checked
    assert routes == ["sweep"] * verdict.offsets_checked


@settings(max_examples=40, deadline=None)
@given(box3_specs(), st.randoms(use_true_random=False), st.integers(1, 2))
def test_extendable_safe_symbol_keeps_every_pattern(spec, rnd, margin):
    # a symbol no forbidden pattern uses pads any ring, so the extendable
    # count is the local count: checked pattern by pattern
    spec = SftSpec.make(spec.alphabet_size + 1, spec.forbidden)
    assert spec.safe_symbols
    lat = random_connected_lattice(rnd, 4)
    ring = dilate(lat, margin)
    extendable = sum(admissible_extension_exists(ring, spec, dict(zip(lat, pattern)))
                     for pattern in enumerate_admissible(lat, spec))
    assert count_extendable(lat, spec, margin).value == extendable == count(lat, spec).value


def test_extension_search_runs_deep():
    # no safe symbol, so each of the four core patterns searches a 32 x 32 dilation
    assert count_extendable(rectangle((0, 0), 2, 2), period_forcing_horizontal(), 15).value == 4
    assert admissible_extension_exists(rectangle((0, 0), 40, 40), GM_H, {(0, 0): 1})


def test_extendable_monotone_in_margin():
    lat = rectangle((0, 0), 2, 2)
    spec = SftSpec.make(
        2, [[((0, 0), 1), ((1, 0), 1)], [((0, 0), 1), ((0, 1), 1)]], name="hard-square"
    )
    values = [count_extendable(lat, spec, m).value for m in (0, 1, 2)]
    assert values[0] >= values[1] >= values[2]


def test_extendable_all_ones_forbidden():
    spec = SftSpec.make(2, [[((0, 0), 1)]], name="zeros-only")
    for margin in (0, 1, 2):
        assert count_extendable(rectangle((0, 0), 2, 3), spec, margin).value == 1


def test_extendable_strictly_smaller_when_extension_blocked():
    # forbids 10 horizontally: admissible rows are 0...01...1; on a strip the
    # pattern 1 must extend by 1s forever to the right, so right-extension
    # fails for patterns ending in 1 unless the margin column can hold 1s
    spec = SftSpec.make(2, [[((0, 0), 1), ((1, 0), 0)]], name="monotone-rows")
    strip = rectangle((0, 0), 2, 1)
    local = count(strip, spec).value
    assert local == 3  # 00, 01, 11
    ext1 = count_extendable(strip, spec, 1).value
    assert ext1 == 3  # still extendable: pad 1s to the right, 0s to the left
