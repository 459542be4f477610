import math
from collections import Counter

import pytest

from sftent import (
    BudgetExceeded,
    count,
    count_multiplicative,
    count_multiplicative_bruteforce,
    fiber_decomposition,
    fibonacci,
    golden_mean_horizontal,
    log_count_multiplicative,
    multiplicative_entropy_series,
    rectangle,
)
from sftent.multiplicative import _fiber_lengths


def test_fibonacci_convention():
    assert [fibonacci(k) for k in range(7)] == [1, 2, 3, 5, 8, 13, 21]


def test_fibonacci_matches_strip_counts():
    spec = golden_mean_horizontal()
    for m in range(1, 31):
        assert fibonacci(m) == count(rectangle((0, 0), m, 1), spec).value


def test_bruteforce_budget_counts_strings():
    # the shared rule: 2**n strings may not exceed the budget
    assert count_multiplicative_bruteforce(10, 2, budget=2**10) == count_multiplicative(10, 2)
    for n, budget in ((10, 2**10 - 1), (25, 2**24)):
        with pytest.raises(BudgetExceeded):
            count_multiplicative_bruteforce(n, 2, budget=budget)


def test_fiber_decomposition_examples():
    fd = fiber_decomposition(8, 2)
    assert [(f.i, f.length) for f in fd.fibers] == [(1, 4), (3, 2), (5, 1), (7, 1)]
    fd = fiber_decomposition(1, 5)
    assert [(f.i, f.length) for f in fd.fibers] == [(1, 1)]
    fd = fiber_decomposition(9, 3)
    assert [(f.i, f.length) for f in fd.fibers] == [
        (1, 3), (2, 2), (4, 1), (5, 1), (7, 1), (8, 1),
    ]


def test_fiber_partition_property():
    for q in (2, 3, 4):
        for n in (1, 7, 30, 100):
            fd = fiber_decomposition(n, q)
            members = sorted(f.i * q**j for f in fd.fibers for j in range(f.length))
            assert members == list(range(1, n + 1))
    # the closed-form census counts the same fiber lengths, longest first
    for q in (2, 3, 4, 5):
        for n in [*range(1, 401), 10**5]:
            census = _fiber_lengths(n, q)
            assert census == Counter(f.length for f in fiber_decomposition(n, q).fibers)
            assert list(census) == sorted(census, reverse=True)


def test_count_examples():
    assert count_multiplicative(1, 2) == 2
    assert count_multiplicative(8, 2) == 96
    assert count_multiplicative(9, 3) == 240


@pytest.mark.parametrize("n,q", [(0, 2), (-3, 2), (5, 1), (5, 0), (5, -3)])
def test_count_rejects_bad_arguments(n, q):
    for f in (count_multiplicative, log_count_multiplicative, count_multiplicative_bruteforce):
        with pytest.raises(ValueError, match="need n >= 1 and q >= 2"):
            f(n, q)


def test_count_equals_bruteforce():
    # the cells past n // q are counted, not built, so n = 40 is in reach
    for q in (2, 3, 4, 5):
        for n in range(1, 41):
            assert count_multiplicative(n, q) == count_multiplicative_bruteforce(n, q, budget=2**n)
    with pytest.raises(ValueError):
        count_multiplicative_bruteforce(5, 1)


def test_log_count_matches_exact():
    for q in (2, 3):
        for n in (5, 64, 1000):
            assert log_count_multiplicative(n, q) == pytest.approx(
                math.log(count_multiplicative(n, q)), rel=1e-12
            )


def test_series_first_term():
    value, tail = multiplicative_entropy_series(2, 1)
    assert value == pytest.approx(0.25 * math.log(2), rel=1e-12)
    assert 0 < tail < 1


def test_series_tail_shrinks():
    tails = [multiplicative_entropy_series(2, k).tail_bound for k in (5, 10, 20, 40)]
    assert tails == sorted(tails, reverse=True)
    assert tails[-1] < 1e-9


def test_series_value_brackets_the_true_entropy():
    # the series increases to its limit; value..value+tail must bracket later sums
    v20, t20 = multiplicative_entropy_series(2, 20)
    v60, _ = multiplicative_entropy_series(2, 60)
    assert v20 <= v60 <= v20 + t20


def test_series_below_log2():
    for q in (2, 3, 4):
        value, tail = multiplicative_entropy_series(q, 40)
        assert value + tail < math.log(2)


def test_horizon_ratios_converge_to_series():
    series, _ = multiplicative_entropy_series(2, 40)
    diffs = [
        abs(series - log_count_multiplicative(2**j, 2) / 2**j) for j in range(4, 15)
    ]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < 0.01
    # far horizons; 100 terms leave a tail far below the tolerance
    for q in (2, 3, 5, 10):
        series, tail = multiplicative_entropy_series(q, 100)
        assert tail < 1e-20
        for j in (20, 40):
            assert abs(series - log_count_multiplicative(q**j, q) / q**j) < 1e-12


def test_series_stops_inside_float_range():
    # q^(k+1) passes the float range at k = 1023 for q = 2; later terms are
    # far below one ulp, so the value is that of 1000 terms
    v1000, t1000 = multiplicative_entropy_series(2, 1000)
    v, tail = multiplicative_entropy_series(2, 1100)
    assert v == v1000
    assert 0 < tail < t1000
    for q in (2, 3, 10):
        assert multiplicative_entropy_series(q, 10**6).tail_bound > 0
