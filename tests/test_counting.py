import math
import time
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
    UnsupportedForbiddenShape,
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
from sftent.sft import Pattern, is_locally_admissible
from sftent import counting
from sftent.counting import _check_budget, _sweep_bans, admissible_extension_exists
from conftest import random_connected_lattice


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
    # blocks of 1, 2 and 7 rows split every child; `compare` sends every
    # check through the banned-key comparison instead of a lookup table
    lat = FiniteLattice(rnd.sample(BRUTE_BOX, ORACLE_CELLS[spec.alphabet_size]))
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
            assert count_bruteforce(lat, spec).value == len(admissible)
            assert count_bruteforce(lat, spec, fixed=fixed).value == len(pinned)
            assert count_multiplicative_bruteforce(n, q) == count_multiplicative(n, q)
        finally:
            counting._constraint_table.cache_clear()


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


def test_dp_rejects_wide_shapes():
    # the skip pair reaches back two columns, and the sweep's state with it
    square = rectangle((0, 0), 3, 3)
    spec = SftSpec.make(2, [[((0, 0), 1), ((2, 0), 1)]], name="skip-pair")
    assert count_profile_dp(square, spec).value == count_bruteforce(square, spec).value
    # one context bit per placed shape: 63 sweep, 64 go to brute force
    quads = SftSpec.make(2, [[(c, 1) for c in cells] for cells in combinations(BOX3, 4)])
    assert len({pat.shape for pat in quads.forbidden}) == len(quads.forbidden) >= 64
    for k in (63, 64):
        spec = SftSpec.make(2, quads.forbidden[:k])
        exact = count_bruteforce(square, spec).value
        if k == 63:
            assert count_profile_dp(square, spec).value == exact
        else:
            with pytest.raises(UnsupportedForbiddenShape):
                count_profile_dp(square, spec)
        assert count(square, spec).value == exact


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


@settings(max_examples=120, deadline=None)
@given(box3_specs(), st.randoms(use_true_random=False))
def test_sweep_matches_oracle_on_random_box3_specs(spec, rnd):
    # shapes up to 3x3 reach back past the frontier: the state holds them
    lat = holey_clusters(rnd, 12 if spec.alphabet_size == 2 else 8)
    exact = count_bruteforce(lat, spec).value
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


def test_sweep_hard_squares_oeis_a006506():
    expected = {8: 660647962955, 10: 2030049051145980050,
                12: 162481813349792588536582997,
                16: 18396766424410124752958806046933947217821482942}
    for n, value in expected.items():
        assert count_profile_dp(rectangle((0, 0), n, n), HARD_SQUARE).value == value


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
    assert _sweep_bans(reach, wide)[:3] == (101, object, 19)
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
        assert _sweep_bans(pair, HARD_SQUARE)[5] == 2
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
        depth, _, _, context, _, h = _sweep_bans(lat, spec)
        assert (depth, h, len(context)) == (8, 2, positions)
        assert count_bruteforce(lat, spec).value == value
        assert count_profile_dp(lat, spec).value == value
        assert count_profile_dp(lat.transpose(), spec.transpose()).value == value
    # empty rows likewise: row-major a pair 5 apart keeps the 4 rows it
    # spans (h = 6), and with no placement the gap closes to one (h = 2)
    spec = SftSpec.make(2, [[((0, 0), 1), ((5, 0), 1)]])
    for far, value, h in ((5, 3 ** 3, 6), (9, 2 ** 6, 2)):
        lat = FiniteLattice([(x, y) for x in (0, far) for y in range(3)])
        assert _sweep_bans(lat, spec)[5] == h
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
    assert _sweep_bans(lat, L_TRIOMINO_RUN)[0] == 16
    assert _sweep_bans(lat.transpose(), L_TRIOMINO_RUN.transpose())[0] == 16
    assert (count_profile_dp(lat, L_TRIOMINO_RUN).value
            == count_profile_dp(lat.transpose(), L_TRIOMINO_RUN.transpose()).value)
    # 5 x 4 boxes with holes: column-major, along the box, the run needs 8;
    # row-major the L-triomino needs w = 5 (6 with the frontier-plus-one floor)
    for holes in ((), ((2, 1),), ((0, 3), (3, 2), (4, 0))):
        lat = rectangle((0, 0), 5, 4).difference(FiniteLattice(list(holes)))
        assert _sweep_bans(lat, L_TRIOMINO_RUN)[0] == 5
        exact = count_bruteforce(lat, L_TRIOMINO_RUN).value
        assert count_profile_dp(lat, L_TRIOMINO_RUN).value == exact
        assert count_profile_dp(lat.transpose(), L_TRIOMINO_RUN.transpose()).value == exact
        assert log_count(lat, L_TRIOMINO_RUN) == pytest.approx(math.log(exact), rel=1e-12)
    # hard squares read one column back, h positions: the frontier runs along
    # the shorter side, 4 digits on 5 x 4 either way (5 with the old floor)
    square = rectangle((0, 0), 5, 4)
    assert _sweep_bans(square, HARD_SQUARE)[0] == 4
    assert _sweep_bans(square.transpose(), HARD_SQUARE.transpose())[0] == 4
    # a tie, when no shape of two or more cells has a placement (depth 1),
    # takes the shorter frontier: on a 5 x 4 box, 4 rows either way
    apart = SftSpec.make(2, [[((0, 0), 1), ((5, 0), 1)], [((0, 0), 1), ((0, 5), 1)]])
    assert _sweep_bans(square, apart)[::5] == (1, 4)
    assert _sweep_bans(square.transpose(), apart.transpose())[::5] == (1, 4)
    # rows no placed shape spans close to one: three corners hold two rows
    corners = FiniteLattice([(0, 0), (4, 0), (0, 3)])
    assert _sweep_bans(corners, HARD_SQUARE)[::5] == (1, 2)


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


def test_sweep_cache_bound_refuses_nothing_the_step_budget_admits(monkeypatch):
    # at the smallest budget the steps admit, the cache holds far fewer steps
    # than the sweep takes: they are computed again, never refused
    square = rectangle((0, 0), 12, 12)
    value = 162481813349792588536582997
    demand, calls = [], []

    def step(codes, here, merging, n, top, table):
        calls.append(here)
        if here >= 0:
            demand.append(len(codes) * n)
        return sweep_step(codes, here, merging, n, top, table)
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


def test_extension_search_enforces_budget():
    square = rectangle((0, 0), 6, 6)
    with pytest.raises(BudgetExceeded):
        admissible_extension_exists(square, GM_H, {(0, 0): 1}, budget=1)
    assert admissible_extension_exists(square, GM_H, {(0, 0): 1}, budget=100)
    with pytest.raises(BudgetExceeded):     # no safe symbol, so the search runs
        count_extendable(rectangle((0, 0), 1, 1), period_forcing_horizontal(), 1, budget=4)


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
