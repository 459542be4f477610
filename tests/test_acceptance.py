"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check enforces its stated tolerance and runtime budget.  Where
a criterion is one of the paper's claims, it calls that claim's reproducer in
``sftent.reproduce`` (criteria 3-5 and 7-10) rather than restating it.
"""

import math
import time

import pytest

import sftent as S
from sftent import reproduce as R

GM_H = S.golden_mean_horizontal()
LOG_G = math.log((1 + math.sqrt(5)) / 2)
LOG2 = math.log(2)


def fib_a(k):
    a, b = 1, 2
    for _ in range(k):
        a, b = b, a + b
    return a


class Criterion:
    """Times a criterion body and prints its verdict line."""

    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        in_budget = elapsed < self.budget_s
        verdict = "PASS" if exc_type is None and in_budget else "FAIL"
        print(f"{verdict} criterion {self.number:2d} [{elapsed:6.2f}s] {self.title}")
        if exc_type is None:
            assert in_budget, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget: {elapsed:.1f}s"
            )
        return False


def test_c01_fibonacci_strips():
    with Criterion(1, "strip counts follow the a_k recursion (m <= 30)", 1):
        for m in range(1, 31):
            got = S.count(S.rectangle((0, 0), m, 1), GM_H).value
            assert got == fib_a(m), (m, got)


def test_c02_rectangle_factorisation():
    with Criterion(2, "rectangle counts are a_m^n; DP = brute force (mn <= 16)", 10):
        for m in range(1, 11):
            expected_col = fib_a(m)
            for n in range(1, 11):
                assert S.count(S.rectangle((0, 0), m, n), GM_H).value == expected_col**n
                if m * n <= 16:
                    assert (
                        S.count_profile_dp(S.rectangle((0, 0), m, n), GM_H).value
                        == S.count_bruteforce(S.rectangle((0, 0), m, n), GM_H).value
                    )


def test_c03_row_census_identity():
    with Criterion(3, "row census matches the closed form exactly (q in 2..4, n <= 8)", 1):
        for q in (2, 3, 4):
            for n in range(1, 9):
                ok, lines = R.eq1_7(q=q, n=n)
                assert ok, (q, n, lines)


def test_c04_wedge_count_closed_form():
    with Criterion(4, "mirrored-wedge golden-mean counts match the closed form", 30):
        for q, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
            ok, lines = R.eq1_10(q=q, n=n)
            assert ok, (q, n, lines)
        assert S.count_bruteforce(S.omega_q(2, 1), GM_H).value == 64
        assert S.count_bruteforce(S.omega_q(2, 2), GM_H).value == 3969


def test_c05_wedge_entropy_series():
    with Criterion(5, "wedge entropy series: value, gap over log g, growth in q", 1):
        value, tail = S.omega_q_entropy_series(2, 40)
        assert 0.5170 <= value + tail <= 0.5185
        assert 0.5170 <= value <= 0.5185
        assert abs(LOG_G - 0.481211825) < 1e-9
        ok, lines = R.eq1_13()        # exceeds log g by more than 0.02
        assert ok, lines
        series = [S.omega_q_entropy_series(q, 40).value for q in (2, 3, 4)]
        assert series[0] < series[1] < series[2]
        assert all(v < LOG2 for v in series)


def test_c06_multiplicative_counts_and_series():
    with Criterion(6, "multiplicative fiber counts = brute force; series vs horizon", 60):
        for q in (2, 3):
            for n in range(1, 21):
                assert S.count_multiplicative(n, q) == S.count_multiplicative_bruteforce(n, q)
        series, _ = S.multiplicative_entropy_series(2, 40)
        horizon = S.log_count_multiplicative(2**14, 2) / 2**14
        assert abs(series - horizon) < 0.01


def test_c07_strict_gap():
    with Criterion(7, "every rectangle ratio strictly exceeds log g; full shift flat", 5):
        ok, lines = R.prop2_1()       # every 12x12 margin over log g above 1e-12
        assert ok, lines
        full = S.strict_gap_check(S.full_shift(2), 12, 12)
        for _, _, _, ratio in full.table.entries():
            assert abs(ratio - LOG2) <= 1e-12


def test_c08_vanishing_trends_and_square_entropy():
    with Criterion(8, "boundary/block ratios vanish (n <= 200); square entropy near log g", 10):
        ok, lines = R.lemma3_1()      # squares
        assert ok, lines
        blocks = [(2, 2), (3, 3), (5, 5)]
        wide = S.rect_system(lambda n: n * n, lambda n: n, "wide")
        rep = S.condition_report(wide, range(1, 201), m_max=1, block_sizes=blocks)
        assert rep.verdicts["boundary_ratio"] == "vanishing"
        for k, l in blocks:
            assert rep.verdicts[f"block[{k}x{l}]"] == "vanishing", (k, l)
        ratio48 = S.log_count(S.rectangle((0, 0), 48, 48), GM_H) / (48 * 48)
        assert abs(ratio48 - LOG_G) < 0.01
        seq = S.system_entropy(GM_H, S.squares(), 40, 48)
        assert abs(seq.estimate - LOG_G) < 0.01


def test_c09_wedge_system_exceeds_rectangular_entropy():
    with Criterion(9, "wedge family: non-vanishing runs and entropy above the rect bound", 30):
        ok, lines = R.thm4_1()
        assert ok, lines


def test_c10_stick_interpolation():
    with Criterion(10, "square+stick family interpolates to (log g + log 2)/2", 60):
        ok, lines = R.thm4_2()
        assert ok, lines


def test_c11_block_gluing():
    with Criterion(11, "golden mean glues at gap 1; period-forcing counterexample", 30):
        verdict = S.verify_block_gluing(GM_H, gap=1, window=3, extent=6)
        assert verdict.verified and verdict.counterexample is None
        spec = S.period_forcing_horizontal()
        bad = S.verify_block_gluing(spec, gap=1, window=2, extent=4)
        assert not bad.verified
        assert S.replay_counterexample(spec, bad.counterexample) == 0


def test_c12_geometry_identities_on_corpus(rng):
    from conftest import random_connected_lattice

    with Criterion(12, "geometry identities hold on 500 random connected lattices", 30):
        shapes = [random_connected_lattice(rng, 64) for _ in range(500)]
        shapes += [
            S.rectangle((0, 0), 7, 3),
            S.lshape(2),
            S.lshape(3),
            S.staircase(2),
            S.staircase(3),
            S.omega_q(2, 3),
            S.omega_q(3, 2),
            S.stick_augmented(3, (0, 1), 8),
            S.stick_augmented(3, (1, 1), 8),
        ]
        for lat in shapes:
            inner, outer = S.interior(lat), S.boundary(lat)
            assert len(inner) + len(outer) == len(lat)
            assert inner.union(outer) == lat and inner.isdisjoint(outer)
            for k, l in ((2, 2), (3, 2)):
                bd = S.block_decompose(lat, k, l)
                assert len(lat) == bd.alpha * k * l + bd.beta
            for axis in ("horizontal", "vertical"):
                census = S.run_census(lat, axis)
                assert sum(census.values()) == len(lat)
                try:
                    bands = S.decompose_bands(lat, axis)
                except S.NotDecomposable:
                    continue
                total = S.FiniteLattice()
                for band in bands:
                    assert total.isdisjoint(band)
                    total = total.union(band)
                assert total == lat
