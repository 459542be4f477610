import math
import random
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_lattice
from sftent import (
    ExpandingSystem,
    FiniteLattice,
    OverlapError,
    block_residue_size,
    boundary_size,
    check_expansion,
    classify_trend,
    condition_report,
    count_bruteforce,
    count_profile_dp,
    decompose_bands,
    fibonacci,
    golden_mean_horizontal,
    is_tessellation,
    lshape,
    lshape_system,
    log_count,
    omega_q,
    omega_q_entropy_series,
    omega_q_golden_mean_count,
    omega_q_plus,
    omega_q_system,
    rect_system,
    rectangle,
    row_census,
    run_census,
    squares,
    staircase,
    staircase_system,
    stick_augmented,
    stick_system,
    systems,
)
from sftent.systems import ConditionRow

GM_H = golden_mean_horizontal()
LOG_G = math.log((1 + math.sqrt(5)) / 2)


def census_closed_form(q, n):
    expected = {n + 1: 1}
    if q > 2:
        expected[n] = expected.get(n, 0) + (q - 2)
    for k in range(1, n):
        expected[k] = expected.get(k, 0) + (q - 1) ** 2 * q ** (n - 1 - k)
    return expected


# ---------------------------------------------------------------------------
# q-adic wedges
# ---------------------------------------------------------------------------


def test_wedge_examples():
    w = omega_q_plus(2, 2)
    assert len(w) == 4
    assert run_census(w, "horizontal") == {3: 3, 1: 1}  # cells per length
    w = omega_q_plus(2, 3)
    assert len(w) == 8
    assert sorted(row_census(2, 3).items()) == [(1, 2), (2, 1), (4, 1)]
    w = omega_q_plus(3, 1)
    assert len(w) == 3
    assert sorted(row_census(3, 1).items()) == [(1, 1), (2, 1)]


def wedge_points(q, n):
    """k = i * q^j (q not dividing i) at (j, rank of i), k = 1..q^n, by loops."""
    points = []
    for k in range(1, q ** n + 1):
        i, j = k, 0
        while i % q == 0:
            i, j = i // q, j + 1
        points.append((j, (i - 1) - (i - 1) // q))
    return points


def test_wedges_built_from_runs_match_their_points():
    for q, n_max in ((2, 7), (3, 5), (5, 3)):
        for n in range(1, n_max + 1):
            plus = wedge_points(q, n)
            mirrored = [(x, y) for x0, y0 in plus for x in (x0, -1 - x0) for y in (y0, -1 - y0)]
            for lat, points in ((omega_q_plus(q, n), plus), (omega_q(q, n), mirrored)):
                ref = FiniteLattice(points)
                assert lat == ref, (q, n)
                # the prebuilt transpose is the one the coverage kernel finds
                assert lat.transpose() == ref.transpose(), (q, n)


def test_wedge_sizes():
    for q in (2, 3, 4):
        for n in range(1, 9):
            if q ** n > 70000:
                continue
            assert len(omega_q_plus(q, n)) == q ** n


def test_mirrored_wedge_row_doubling():
    lat = omega_q(2, 1)
    assert len(lat) == 8
    assert run_census(lat, "horizontal") == {4: 8}
    lat = omega_q(2, 2)
    assert len(lat) == 16
    assert run_census(lat, "horizontal") == {6: 12, 2: 4}


def test_mirrored_wedge_nesting():
    for q in (2, 3):
        for n in range(1, 7):
            assert omega_q(q, n).issubset(omega_q(q, n + 1))
    report = check_expansion(omega_q_system(2), span=6)
    assert report.nested and report.strictly_growing


def test_row_census_identity():
    for q in (2, 3, 4):
        for n in range(1, 9):
            census = row_census(q, n)
            assert sum(length * mult for length, mult in census.items()) == q ** n
            assert census == census_closed_form(q, n)


def test_golden_mean_count_formula_vs_dp():
    for q, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        formula = omega_q_golden_mean_count(q, n)
        assert formula == count_profile_dp(omega_q(q, n), GM_H).value
    assert omega_q_golden_mean_count(2, 1) == 64
    assert omega_q_golden_mean_count(2, 2) == 3969
    assert omega_q_golden_mean_count(3, 2) == 21**2 * 8**2 * 3**8


def test_golden_mean_count_matches_eq_1_10_product():
    # Eq. 1.10 written out: one fiber of length n+1, q-2 of length n and
    # (q-1)^2 q^(n-1-k) of each length k < n
    for q in (2, 3, 4, 5):
        for n in range(1, 6):
            expected = fibonacci(2 * (n + 1)) ** 2 * fibonacci(2 * n) ** (2 * (q - 2))
            for k in range(1, n):
                expected *= fibonacci(2 * k) ** (2 * (q - 1) ** 2 * q ** (n - 1 - k))
            assert omega_q_golden_mean_count(q, n) == expected
    for q, n in ((1, 3), (0, 3), (2, 0), (2, -1)):
        with pytest.raises(ValueError, match="need q >= 2 and n >= 1"):
            omega_q_golden_mean_count(q, n)


def test_golden_mean_count_formula_vs_bruteforce():
    assert count_bruteforce(omega_q(2, 1), GM_H).value == 64
    assert count_bruteforce(omega_q(2, 2), GM_H).value == 3969


def test_entropy_series_first_term():
    value, tail = omega_q_entropy_series(2, 1)
    assert value == pytest.approx(0.125 * math.log(3), rel=1e-12)
    assert tail > 0


def test_entropy_series_converged_value():
    value, tail = omega_q_entropy_series(2, 30)
    assert tail < 1e-6
    assert value == pytest.approx(0.5177, abs=2e-4)
    assert value - LOG_G > 0.02


def test_entropy_series_monotone_in_q():
    values = [omega_q_entropy_series(q, 40).value for q in (2, 3, 4)]
    assert values[0] < values[1] < values[2] < math.log(2)


def test_entropy_series_rejects_bad_arguments():
    for q, terms in ((1, 40), (0, 40), (-3, 40), (2, 0)):
        with pytest.raises(ValueError):
            omega_q_entropy_series(q, terms)


def test_entropy_series_matches_finite_lattice_ratios():
    # the per-site ratios of the actual lattices approach the series value
    series, _ = omega_q_entropy_series(2, 40)
    ratios = [
        log_count(omega_q(2, n), GM_H) / (4 * 2**n) for n in range(1, 11)
    ]
    assert abs(ratios[-1] - series) < 0.01


# ---------------------------------------------------------------------------
# sticks
# ---------------------------------------------------------------------------


def test_stick_augmented_sizes():
    assert len(stick_augmented(3, (0, 1), 4)) == 14
    lat = stick_augmented(3, (1, 1), 4)
    assert len(lat) == 14
    assert (3, 0) in lat and (7, 4) in lat


def test_stick_overlap_raises():
    with pytest.raises(OverlapError):
        stick_augmented(3, (-1, 0), 4)


def test_stick_system_ratio_target():
    system = stick_system((0, 1), 0.5)
    for n in (4, 10, 48):
        lat = system.lattice(n)
        assert len(lat) == 2 * n * n  # b(n) = n^2 - 1 gives a = 1/2 exactly
        assert n * n / len(lat) == pytest.approx(0.5)


def test_stick_system_grows_but_does_not_nest():
    report = check_expansion(stick_system((0, 1), 0.5), span=6)
    assert report.strictly_growing
    assert not report.nested  # the stick column moves with n


def test_stick_touching_square_count():
    # rows y < n get length n+1; oracle: brute force on the 2x2+stick case
    lat = stick_augmented(2, (0, 1), 3)
    expected = fibonacci(3) ** 2 * 2 ** 2  # two rows of 3, two single cells
    assert count_profile_dp(lat, GM_H).value == expected
    assert count_bruteforce(lat, GM_H).value == expected


def test_gapped_stick_count_factorises():
    # a stick strictly separated from the square contributes a free factor
    square = rectangle((0, 0), 3, 3)
    gap_stick = rectangle((5, 0), 1, 7)
    lat = square.union(gap_stick)
    assert (
        count_profile_dp(lat, GM_H).value
        == count_profile_dp(square, GM_H).value * 2 ** 7
    )


# ---------------------------------------------------------------------------
# L-shapes / staircases
# ---------------------------------------------------------------------------


def test_lshape_metrics():
    for n in (1, 2, 3):
        lat = lshape(n)
        assert len(lat) == 2 * n**3 - n**2
        _, w, h = lat.bbox
        assert (w, h) == (n * n, n * n)
    assert len(rectangle((0, 0), 4, 4).difference(lshape(2))) == 4


def test_lshape_is_tessellation():
    for n in (1, 2, 3):
        assert is_tessellation(lshape(n)).status == "yes"


def test_staircase_decomposes_into_two_bands():
    for n in (2, 3, 4):
        assert len(decompose_bands(staircase(n), "horizontal")) == 2


def test_builtin_systems_nest():
    for system in (squares(), lshape_system(), staircase_system(), omega_q_system(3)):
        report = check_expansion(system, span=5)
        assert report.nested and report.strictly_growing, system.name


# ---------------------------------------------------------------------------
# condition reports
# ---------------------------------------------------------------------------


def test_squares_boundary_ratio_closed_form():
    rep = condition_report(squares(), range(1, 30))
    for row in rep.rows:
        n = row.n
        assert row.boundary_size == 2 * n - 1
        assert row.boundary_ratio == pytest.approx((2 * n - 1) / n**2)
    assert rep.verdicts["boundary_ratio"] == "vanishing"


def test_boundary_ratio_monotone_decreasing_squares():
    rep = condition_report(squares(), range(1, 201))
    ratios = [r.boundary_ratio for r in rep.rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.01


def test_block_ratio_bounded_by_boundary():
    # residual cells live near the boundary: beta <= (kl - 1) |boundary|
    rep = condition_report(squares(), range(4, 60), block_sizes=[(2, 2), (3, 3)])
    for row in rep.rows:
        for j, (k, l) in enumerate(rep.block_sizes):
            assert row.block_ratio[j] <= (k * l - 1) * row.boundary_ratio + 1e-12
    with pytest.raises(ValueError, match="block sides"):
        condition_report(squares(), range(4, 6), block_sizes=[(2, 0)])


def test_lemma_trend_equivalence_desk_scale():
    # boundary ratio vanishing <-> block residue ratio vanishing
    fams = [
        (squares(), range(1, 61), True),
        (rect_system(lambda n: n * n, lambda n: n, "wide"), range(1, 61), True),
        (rect_system(lambda n: 2**n, lambda n: 1, "stick"), range(1, 13), False),
    ]
    for system, n_range, expect_vanishing in fams:
        rep = condition_report(
            system, n_range, m_max=1, block_sizes=[(2, 2), (3, 3), (5, 5)]
        )
        boundary_vanishes = rep.verdicts["boundary_ratio"] == "vanishing"
        block_vanishes = all(
            rep.verdicts[f"block[{k}x{l}]"] == "vanishing" for k, l in rep.block_sizes
        )
        assert boundary_vanishes == block_vanishes == expect_vanishing


def test_omega_system_run_ratio_non_vanishing():
    rep = condition_report(omega_q_system(2), range(1, 11), m_max=2)
    assert rep.verdicts["run_h[m=2]"] == "non_vanishing"
    # the constant value is 1/4 from n = 2 onward
    for row in rep.rows[1:]:
        assert row.run_ratio_h[1] == pytest.approx(0.25)


def test_height_one_system_vertical_runs():
    rep = condition_report(rect_system(lambda n: 2**n, lambda n: 1, "stick"), range(1, 11), m_max=1)
    for row in rep.rows:
        assert row.run_ratio_v[0] == 1.0
    assert rep.verdicts["run_v[m=1]"] == "non_vanishing"


def test_lshape_self_tessellation_complement():
    rep = condition_report(lshape_system(), range(1, 8), tessellation="self")
    assert all(r.complement_ratio == 0 for r in rep.rows)
    assert rep.verdicts["complement_ratio"] == "vanishing"
    # with the bounding rectangle the complement ratio grows without bound
    rep2 = condition_report(lshape_system(), range(1, 8))
    ratios = [r.complement_ratio for r in rep2.rows]
    assert ratios[-1] > ratios[1] > 0


def test_self_tessellation_rejects_non_tiling_family():
    # U-pentomino translates: certified not to tile, so "self" must refuse
    base = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)]
    from sftent import FiniteLattice

    system = rect_system(lambda n: n, lambda n: n, "u-fam")
    u_system = type(system)("u-pentomino", lambda n: FiniteLattice(base), 1)
    with pytest.raises(ValueError):
        condition_report(u_system, range(1, 4), tessellation="self")


def test_explicit_tessellation_choice():
    # enclose each square in a larger aligned square
    rep = condition_report(
        squares(),
        range(2, 10),
        tessellation=lambda n: rectangle((0, 0), n + 1, n + 1),
    )
    for row in rep.rows:
        assert row.complement_ratio == pytest.approx((2 * row.n + 1) / row.n**2)
    with pytest.raises(ValueError):
        condition_report(
            squares(), range(2, 4), tessellation=lambda n: rectangle((0, 0), n - 1, n)
        )


def oracle_row(n, lat, m_max, blocks):
    """A condition-report row from the public per-lattice functions."""
    size = len(lat)
    _, w, h = lat.bbox
    bsize = boundary_size(lat)
    census_h, census_v = run_census(lat, "horizontal"), run_census(lat, "vertical")
    return ConditionRow(
        n=n,
        size=size,
        boundary_size=bsize,
        boundary_ratio=bsize / size,
        complement_ratio=(w * h - size) / size,
        run_ratio_h=tuple(census_h.get(m, 0) / size for m in range(1, m_max + 1)),
        run_ratio_v=tuple(census_v.get(m, 0) / size for m in range(1, m_max + 1)),
        block_ratio=tuple(block_residue_size(lat, k, l) / size for k, l in blocks),
    )


def assert_rows_match_oracle(lats, m_max, blocks):
    family = ExpandingSystem("family", lambda n: lats[n], n0=0)
    rep = condition_report(family, range(len(lats)), m_max=m_max, block_sizes=blocks)
    for row, (n, lat) in zip(rep.rows, enumerate(lats), strict=True):
        expected = oracle_row(n, lat, m_max, blocks)
        assert row == expected, (n, lat)
        floats = [row.boundary_ratio, row.complement_ratio, *row.run_ratio_h,
                  *row.run_ratio_v, *row.block_ratio]
        expected_floats = [expected.boundary_ratio, expected.complement_ratio,
                           *expected.run_ratio_h, *expected.run_ratio_v, *expected.block_ratio]
        assert [v.hex() for v in floats] == [v.hex() for v in expected_floats]


@st.composite
def lattice_families(draw):
    """1-12 lattices: rectangles with holes and loose points, or connected
    shapes; moved to negative coordinates or rows 10**6 apart, and at most one
    moved to touch +-2**62."""
    lats = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            lat = random_connected_lattice(random.Random(draw(st.integers(0, 2**32))), 40)
        else:
            boxes = st.tuples(st.integers(-6, 6), st.integers(-4, 4), st.integers(1, 8), st.integers(1, 6))
            cells = st.tuples(st.integers(-8, 8), st.integers(-6, 6))
            points = set()
            for x, y, w, h in draw(st.lists(boxes, max_size=3)):
                points |= {(x + i, y + j) for i in range(w) for j in range(h)}
            points -= draw(st.sets(cells, max_size=10))
            lat = FiniteLattice(points | draw(st.sets(cells, min_size=1, max_size=8)))
        move = (draw(st.integers(-20, 20)), draw(st.integers(-3, 3)) * 10**6 + draw(st.integers(-20, 20)))
        lats.append(lat.translate(move))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lats) - 1))
        (ox, oy), w, h = lats[i].bbox
        lats[i] = lats[i].translate(draw(st.sampled_from(
            [(2**62 - ox - w + 1, 0), (-2**62 - ox, 0), (0, 2**62 - oy - h + 1), (0, -2**62 - oy)])))
    return lats


@settings(max_examples=100, deadline=None)
@given(lattice_families(), st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=3),
       st.integers(1, 4), st.sampled_from((1, 7, systems._CHUNK)))
def test_stacked_condition_rows_match_per_lattice_oracle(lats, blocks, m_max, chunk):
    # stacks of 1 row end after every lattice; 7 rows end after a few
    with patch.object(systems, "_CHUNK", chunk):
        assert_rows_match_oracle(lats, m_max, blocks)


def test_stack_that_would_leave_int64_starts_anew():
    # the first lattice ends 5 rows below 2**63 - 1: the 4-row square after
    # it would not fit above it, so it starts a second stack where it lies
    top = rectangle((-3, 2**63 - 10), 6, 5)
    lats = [top, rectangle((0, 0), 4, 4), FiniteLattice([(0, 0), (1, 0), (0, 1)])]
    entries = [(n, lat, 0) for n, lat in enumerate(lats)]
    stacks = list(systems._stacks(entries, 6))
    assert [[entry[0] for entry, _, _ in stack] for stack in stacks] == [[0], [1, 2]]
    assert [shift for _, shift, _ in stacks[1]] == [0, 6]
    assert_rows_match_oracle(lats, 3, [(2, 2), (3, 3), (1, 2)])
    # a 4-row lattice at the bottom of the range does not fit above the
    # first one either, while that one moves down above it
    low = rectangle((0, -2**63), 3, 4)
    assert [len(s) for s in systems._stacks([(0, top, 0), (1, low, 0)], 1)] == [1, 1]
    assert [len(s) for s in systems._stacks([(0, low, 0), (1, top, 0)], 1)] == [2]
    assert_rows_match_oracle([low, top, low], 2, [(2, 2)])


def test_condition_report_memory_is_bounded():
    # the stack bound keeps the kernel's temporaries small: 0.8 MiB measured,
    # 6.6 MiB with every square of the range in one stack
    tracemalloc.start()
    try:
        condition_report(squares(), range(1, 201), block_sizes=[(2, 2), (3, 3), (5, 5)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_classify_trend_rules():
    assert classify_trend([0.0] * 9) == "vanishing"
    assert classify_trend([1.0, 0.5, 0.25, 0.12, 0.06, 0.03, 0.02, 0.01, 0.005]) == "vanishing"
    assert classify_trend([0.25] * 9) == "non_vanishing"
    assert classify_trend([0.005] * 9) == "bounded"
