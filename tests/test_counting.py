import math
import time
import tracemalloc

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
    count_profile_dp,
    full_shift,
    golden_mean_horizontal,
    golden_mean_vertical,
    log_count,
    lshape,
    omega_q,
    rectangle,
    staircase,
)
from sftent.counting import _check_budget, admissible_extension_exists
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


def test_dp_rejects_wide_shapes():
    spec = SftSpec.make(2, [[((0, 0), 1), ((2, 0), 1)]], name="skip-pair")
    with pytest.raises(UnsupportedForbiddenShape):
        count_profile_dp(rectangle((0, 0), 3, 3), spec)


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
    # a 21 x 100001 bounding box holding two cells: steps far from a present
    # cell meet the single zero state and are skipped, so the sweep costs time
    # in cells, not in its box (about 10 s when every cell was swept); its
    # per-position arrays are one int16 context and two booleans, about 8 MiB
    lat = FiniteLattice([(0, 0), (20, 10**5)])
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
    assert peak < 16 * 2**20, f"two cells in a long bounding box peaked at {peak / 2**20:.1f} MiB"
    # far-apart clusters factorise across the skipped stretches
    parts = [rectangle((0, 0), 3, 3), rectangle((18, 5000), 3, 2), FiniteLattice([(9, 70000)])]
    lat = parts[0].union(parts[1]).union(parts[2])
    assert count(lat, HARD_SQUARE).value == math.prod(
        count_bruteforce(p, HARD_SQUARE).value for p in parts)


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
    with pytest.raises(BudgetExceeded):
        count(rectangle((0, 0), 6, 5), spec)  # 30 cells, not DP-eligible


def test_count_empty_lattice():
    assert count(FiniteLattice(), GM_H).value == 1


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
    with pytest.raises(BudgetExceeded):
        count_extendable(rectangle((0, 0), 1, 1), GM_H, 1, budget=4)


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
