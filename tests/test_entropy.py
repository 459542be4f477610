import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftent import (
    LOG_GOLDEN_MEAN,
    NonPrimitiveVector,
    Point,
    RectTable,
    SftSpec,
    count_bruteforce,
    count_extendable,
    count_profile_dp,
    directional_entropy_max,
    full_shift,
    golden_mean_horizontal,
    golden_mean_vertical,
    log_count,
    omega_q_system,
    period_forcing_horizontal,
    projectional_entropy,
    rect_entropy_table,
    rectangle,
    segment,
    squares,
    strict_gap_check,
    system_entropy,
)
from sftent import counting
from sftent.counting import _profile_sweep, _string_counts

GM_H = golden_mean_horizontal()
GM_V = golden_mean_vertical()
HARD_SQUARE = SftSpec.make(2, [[((0, 0), 1), ((1, 0), 1)], [((0, 0), 1), ((0, 1), 1)]])
LOG2 = math.log(2)


def fib_a(k):
    a, b = 1, 2
    for _ in range(k):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# rectangular tables
# ---------------------------------------------------------------------------


def test_rect_table_golden_mean_structure():
    table = rect_entropy_table(GM_H, 12, 12)
    # rows are independent, so the ratio depends on the width only
    for m in range(1, 13):
        expected = math.log(fib_a(m)) / m
        for n in range(1, 13):
            assert table.ratio(m, n) == pytest.approx(expected, rel=1e-12)
    assert table.argmin[0] == 12
    assert table.h_r_estimate == pytest.approx(math.log(fib_a(12)) / 12, rel=1e-12)
    assert table.h_r_estimate == pytest.approx(0.4943537656, abs=1e-9)


def test_rect_table_converges_down_toward_log_g():
    table = rect_entropy_table(GM_H, 14, 2)
    ratios = [table.ratio(m, 1) for m in range(1, 15)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > LOG_GOLDEN_MEAN
    assert ratios[-1] - LOG_GOLDEN_MEAN < 0.02


def test_rect_table_full_shift_flat():
    table = rect_entropy_table(full_shift(2), 8, 8)
    for _, _, _, ratio in table.entries():
        assert ratio == pytest.approx(LOG2, abs=1e-12)


def test_rect_table_transpose_symmetry():
    th = rect_entropy_table(GM_H, 9, 5)
    tv = rect_entropy_table(GM_V, 5, 9)
    for m in range(1, 10):
        for n in range(1, 6):
            assert th.ratio(m, n) == pytest.approx(tv.ratio(n, m), rel=1e-12)


def test_rect_table_monotone_in_width_and_infimum_bound():
    table = rect_entropy_table(GM_H, 12, 12)
    for n in range(1, 13):
        col = [table.ratio(m, n) for m in range(1, 13)]
        assert all(b <= a + 1e-15 for a, b in zip(col, col[1:]))
    for _, _, _, ratio in table.entries():
        assert ratio >= table.h_r_estimate - 1e-15


@st.composite
def axis_specs(draw):
    """Single-axis specs, N in 2..6, along x or y: random forbidden pairs,
    one-cell bans or both, full shifts, and specs whose strings die out (every
    pair a, b with b <= a banned, so a string strictly increases)."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(("pairs", "dying", "bans", "full")))
    if kind == "full":
        return full_shift(n)
    symbol = st.integers(0, n - 1)
    step = draw(st.sampled_from(((1, 0), (0, 1))))
    pairs = set() if kind == "bans" else draw(st.sets(st.tuples(symbol, symbol),
                                                      min_size=1, max_size=n * n))
    if kind == "dying":
        pairs |= {(a, b) for a in range(n) for b in range(a + 1)}
    bans = draw(st.sets(symbol, min_size=kind == "bans", max_size=n))
    return SftSpec.make(n, [[((0, 0), a), (step, b)] for a, b in pairs]
                        + [[((0, 0), s)] for s in bans])


@settings(max_examples=80, deadline=None)
@given(axis_specs(), st.integers(1, 30), st.integers(1, 30))
def test_axis_table_reads_the_string_series(spec, width, height):
    # the table equals log_count on each rectangle bit for bit
    table = rect_entropy_table(spec, width, height)
    direct = RectTable(width, height, tuple(
        tuple(log_count(rectangle((0, 0), m, n), spec) for n in range(1, height + 1))
        for m in range(1, width + 1)))
    assert [list(map(repr, row)) for row in table.log_counts] == \
        [list(map(repr, row)) for row in direct.log_counts]
    assert table.argmin == direct.argmin
    assert repr(table.h_r_estimate) == repr(direct.h_r_estimate)
    # the series is the count on 1-D rows, by the axis product and the sweep
    lengths = range(max(width, height) + 1)
    rows = [rectangle((0, 0), *((n, 1) if spec.pure_axis == "horizontal" else (1, n)))
            for n in lengths[1:]]
    assert _string_counts(spec, lengths) == [1] + [count_profile_dp(r, spec).value for r in rows]
    assert _string_counts(spec, lengths)[1:] == [_profile_sweep(r, spec, False) for r in rows]


def test_axis_table_builds_no_lattice(monkeypatch):
    monkeypatch.setattr(counting, "rectangle", None)
    for spec in (GM_H, GM_V, full_shift(3)):
        assert rect_entropy_table(spec, 5, 4).log_counts[4][3] > 0


# ---------------------------------------------------------------------------
# entropy along expanding systems
# ---------------------------------------------------------------------------


def test_squares_entropy_decreases_toward_log_g():
    seq = system_entropy(GM_H, squares(), 1, 30)
    ratios = [r.ratio for r in seq.records]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert seq.estimate > LOG_GOLDEN_MEAN
    assert seq.estimator_kind == "limsup_tail_max"


def test_wedge_system_ratios_match_closed_form():
    seq = system_entropy(GM_H, omega_q_system(2), 1, 8)
    from sftent import omega_q_golden_mean_count

    for rec in seq.records:
        expected = math.log(omega_q_golden_mean_count(2, rec.n)) / (4 * 2**rec.n)
        assert rec.ratio == pytest.approx(expected, rel=1e-12)
    assert all(rec.ratio > 0.5 for rec in seq.records[2:])


def test_full_shift_system_entropy_flat():
    seq = system_entropy(full_shift(2), squares(), 1, 10)
    for rec in seq.records:
        assert rec.ratio == pytest.approx(LOG2, abs=1e-12)
    assert seq.estimate == pytest.approx(LOG2, abs=1e-12)


def test_wedge_entropy_strictly_exceeds_rect_bound():
    # the wedge families beat the rectangular infimum by a clear margin
    table_min = rect_entropy_table(GM_H, 12, 12).h_r_estimate
    for q, min_margin in [(2, 0.02), (3, 0.02)]:
        seq = system_entropy(GM_H, omega_q_system(q), 1, 8)
        assert seq.estimate - table_min > min_margin, q


# ---------------------------------------------------------------------------
# projectional entropy
# ---------------------------------------------------------------------------


def test_projectional_horizontal_counts_are_fib():
    seq = projectional_entropy(GM_H, (1, 0), 20)
    for rec in seq.records:
        assert rec.log_count == pytest.approx(math.log(fib_a(rec.n)), rel=1e-12)
    assert seq.estimate > LOG_GOLDEN_MEAN
    assert seq.estimate - LOG_GOLDEN_MEAN < 0.02
    assert seq.note == ""


def test_projectional_vertical_is_free():
    seq = projectional_entropy(GM_H, (0, 1), 12)
    for rec in seq.records:
        assert rec.ratio == pytest.approx(LOG2, abs=1e-12)
    assert seq.estimate == pytest.approx(LOG2, abs=1e-12)


def test_projectional_diagonal_full_shift_flagged():
    seq = projectional_entropy(GM_H, (1, 1), 10)
    for rec in seq.records:
        assert rec.ratio == pytest.approx(LOG2, abs=1e-12)
    assert "full-shift" in seq.note


def test_projectional_extendable_counts_are_count_extendable():
    # with a margin each record counts the segment's patterns that extend to
    # its dilation: period forcing keeps 2 of them along a row, and every
    # pattern of the diagonal, whose cells share no row
    spec = period_forcing_horizontal()
    for v, counts in (((1, 0), [2, 2, 2, 2]), ((1, 1), [2, 4, 8, 16])):
        seq = projectional_entropy(spec, v, 4, margin=1)
        assert [count_extendable(segment(v, n), spec, 1).value for n in range(1, 5)] == counts
        assert [(r.n, r.size, r.log_count) for r in seq.records] == [
            (n, n, math.log(c)) for n, c in enumerate(counts, 1)]


def test_projectional_extendable_with_a_safe_symbol_is_local():
    # 0 is safe for the golden mean, so every margin gives the local counts
    for v in ((1, 0), (0, 1), (1, 1)):
        assert projectional_entropy(GM_H, v, 6, margin=2) == projectional_entropy(GM_H, v, 6)


def test_projectional_rejects_non_primitive():
    for v in [(0, 0), (2, 2), (0, 3)]:
        with pytest.raises(NonPrimitiveVector):
            projectional_entropy(GM_H, v, 5)


def test_projectional_sign_invariance():
    for v in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        a = projectional_entropy(GM_H, v, 10)
        b = projectional_entropy(GM_H, (-v[0], -v[1]), 10)
        for ra, rb in zip(a.records, b.records):
            assert ra.log_count == pytest.approx(rb.log_count, rel=1e-12)


def test_segment_shape():
    seg = segment((2, 1), 4)
    assert set((p.x, p.y) for p in seg) == {(0, 0), (2, 1), (4, 2), (6, 3)}


# ---------------------------------------------------------------------------
# directional maximum
# ---------------------------------------------------------------------------


def test_directional_max_golden_mean():
    value, argmax = directional_entropy_max(
        GM_H, [(1, 0), (0, 1), (1, 1), (1, -1)], 16
    )
    assert value == pytest.approx(LOG2, abs=1e-12)
    assert argmax == Point(0, 1)


def test_directional_max_transposed_spec():
    value, argmax = directional_entropy_max(
        GM_V, [(1, 0), (0, 1), (1, 1), (1, -1)], 16
    )
    assert value == pytest.approx(LOG2, abs=1e-12)
    assert argmax == Point(1, 0)


def test_directional_max_full_shift():
    value, _ = directional_entropy_max(full_shift(2), [(1, 0), (0, 1)], 10)
    assert value == pytest.approx(LOG2, abs=1e-12)


def test_directional_max_dominates_rect_upper_bound():
    table = rect_entropy_table(GM_H, 10, 10)
    value, _ = directional_entropy_max(GM_H, [(1, 0), (0, 1)], 12)
    assert value >= table.h_r_estimate - 1e-12


# ---------------------------------------------------------------------------
# strictness of the infimum
# ---------------------------------------------------------------------------


def test_strict_gap_golden_mean():
    report = strict_gap_check(GM_H, 12, 12)
    assert report.reference_kind == "closed_form_golden_mean"
    assert report.reference == pytest.approx(LOG_GOLDEN_MEAN, abs=1e-12)
    assert report.all_strict and not report.full_shift
    assert report.min_margin == pytest.approx(
        math.log(fib_a(12)) / 12 - LOG_GOLDEN_MEAN, rel=1e-9
    )
    assert report.min_margin == pytest.approx(0.0131419, abs=1e-6)
    assert report.argmin[0] == 12


def test_two_axis_rect_table_matches_brute_force_logs():
    # hard squares constrain both axes: each entry is a sweep's log count
    table = rect_entropy_table(HARD_SQUARE, 4, 4)
    assert table.log_counts == tuple(
        tuple(math.log(count_bruteforce(rectangle((0, 0), m, n), HARD_SQUARE).value) for n in range(1, 5))
        for m in range(1, 5))


def test_strict_gap_table_min_reference():
    # no closed form for hard squares: the reference is the table minimum,
    # reached with margin 0 at the table's argmin
    report = strict_gap_check(HARD_SQUARE, 4, 4)
    assert report.reference_kind == "table_min" and not report.full_shift
    assert report.reference == report.table.h_r_estimate == min(e[3] for e in report.table.entries())
    assert report.min_margin == 0.0 and report.argmin == report.table.argmin == (4, 4)
    assert not report.all_strict and report.bracket[1] == report.reference


def test_strict_gap_entry_1x1():
    report = strict_gap_check(GM_H, 1, 1)
    assert report.table.ratio(1, 1) == pytest.approx(LOG2, abs=1e-12)
    assert report.min_margin == pytest.approx(LOG2 - LOG_GOLDEN_MEAN, rel=1e-12)


def test_strict_gap_full_shift_equality():
    report = strict_gap_check(full_shift(2), 6, 6)
    assert report.full_shift
    assert report.reference_kind == "closed_form_full_shift"
    assert abs(report.min_margin) <= 1e-12
    assert not report.all_strict
    lo, hi = report.bracket
    assert lo == pytest.approx(LOG2, abs=1e-12)
    assert hi == pytest.approx(LOG2, abs=1e-12)


def test_strict_gap_bracket_encloses_log_g():
    report = strict_gap_check(GM_H, 12, 12)
    lo, hi = report.bracket
    assert lo <= LOG_GOLDEN_MEAN <= hi
    assert lo > 0.4  # the safe-symbol tiling bound is not vacuous
