"""The paper's claims as runnable checks.

Each reproducer checks one claim within its stated tolerance and returns
``(ok, lines)``: the verdict and the lines ``sftent reproduce`` prints above
its ``PASS``/``FAIL`` line.  Every reproducer takes the same plain values
``q``, ``n`` and ``terms`` and reads only those its claim has;
:data:`REPRODUCERS` maps each target name to its reproducer.
"""

from __future__ import annotations

import math

from . import counting, entropy, systems
from .formats import real_text
from .multiplicative import (
    _float_or_reject,
    count_multiplicative,
    count_multiplicative_bruteforce,
    log_count_multiplicative,
    multiplicative_entropy_series,
)
from .sft import full_shift, golden_mean_horizontal

DEFAULT_Q, DEFAULT_N, DEFAULT_TERMS = 2, 6, 40


def eq1_7(q=DEFAULT_Q, n=DEFAULT_N, terms=DEFAULT_TERMS):
    """Eq. 1.7: the wedge's row-length census has the closed form, total q^n."""
    census = systems.row_census(q, n)
    total = sum(length * mult for length, mult in census.items())
    expected = {n + 1: 1}
    if q > 2:
        expected[n] = expected.get(n, 0) + (q - 2)
    for k in range(1, n):
        expected[k] = expected.get(k, 0) + (q - 1) ** 2 * q ** (n - 1 - k)
    ok = total == q ** n and census == expected
    return ok, [
        f"census weighted total = {total}, expected {q ** n}",
        f"multiplicities match closed form: {census == expected}",
    ]


def eq1_10(q=DEFAULT_Q, n=DEFAULT_N, terms=DEFAULT_TERMS):
    """Eq. 1.10: the golden-mean count on the mirrored wedge has the closed form."""
    formula = systems.omega_q_golden_mean_count(q, n)
    dp = counting.count_profile_dp(systems.omega_q(q, n), golden_mean_horizontal()).value
    return formula == dp, [f"closed form = {formula}", f"DP count    = {dp}"]


def eq1_11(q=DEFAULT_Q, n=DEFAULT_N, terms=DEFAULT_TERMS):
    """Eq. 1.11: the wedge entropy series converges (tail bound below 1e-6)."""
    value, tail = systems.omega_q_entropy_series(q, terms)
    return tail < 1e-6, [f"series value = {real_text(value)} (tail bound {real_text(tail)})"]


def eq1_12(q=DEFAULT_Q, n=DEFAULT_N, terms=DEFAULT_TERMS):
    """Eq. 1.12: the 12x12 rectangle table bounds log g from above, within 0.015."""
    table = entropy.rect_entropy_table(golden_mean_horizontal(), 12, 12)
    ref = entropy.LOG_GOLDEN_MEAN
    gap = table.h_r_estimate - ref
    ok = 0 < gap < 0.015
    return ok, [
        f"table minimum = {real_text(table.h_r_estimate)} at {table.argmin}",
        f"log golden mean = {real_text(ref)}, upper-bound gap = {real_text(gap)}",
    ]


def eq1_13(q=DEFAULT_Q, n=DEFAULT_N, terms=DEFAULT_TERMS):
    """Eq. 1.13: the wedge entropy series exceeds log g by more than 0.02."""
    value, tail = systems.omega_q_entropy_series(q, terms)
    margin = value - entropy.LOG_GOLDEN_MEAN
    return margin > 0.02, [
        f"series value = {real_text(value)} (+/- {real_text(tail)})",
        f"exceeds log golden mean by {real_text(margin)} (needs > 0.02)",
    ]


def eq1_5(q=DEFAULT_Q, n=DEFAULT_N, terms=DEFAULT_TERMS):
    """Eq. 1.5: fiber products equal brute force (n <= 12), and the series
    is within 0.01 of the count ratio at a horizon of q^10 (q = 2) or q^6."""
    ok = all(count_multiplicative(k, q) == count_multiplicative_bruteforce(k, q)
             for k in range(1, 13))
    lines = [f"fiber product equals brute force for n <= 12: {ok}"]
    series, _ = multiplicative_entropy_series(q, terms)
    n_h = q ** 10 if q == 2 else q ** 6
    scale = _float_or_reject(n_h, "the horizon q**6")    # q = 2's q**10 always fits
    ratio = log_count_multiplicative(n_h, q) / scale
    diff = abs(series - ratio)
    lines.append(f"series = {real_text(series)}, horizon ratio = {real_text(ratio)}, "
                 f"diff = {real_text(diff)}")
    return ok and diff < 0.01, lines


def prop2_1(q=DEFAULT_Q, n=DEFAULT_N, terms=DEFAULT_TERMS):
    """Prop. 2.1: every golden-mean rectangle ratio (12x12 table) strictly
    exceeds log g, while the full shift's 6x6 table stays flat at log 2."""
    report = entropy.strict_gap_check(golden_mean_horizontal(), 12, 12)
    full = entropy.strict_gap_check(full_shift(2), 6, 6)
    flat = max(abs(r - math.log(2)) for _, _, _, r in full.table.entries())
    ok = report.all_strict and flat <= 1e-12
    return ok, [
        f"golden mean: min margin over log g = {real_text(report.min_margin)} at {report.argmin}",
        f"full shift: max deviation from log 2 = {real_text(flat)}",
    ]


def lemma3_1(q=DEFAULT_Q, n=DEFAULT_N, terms=DEFAULT_TERMS):
    """Lemma 3.1: on squares (n <= 200) the boundary and 2x2, 3x3, 5x5 block
    residue ratios vanish."""
    rep = systems.condition_report(
        systems.squares(), range(1, 201), m_max=1, block_sizes=[(2, 2), (3, 3), (5, 5)]
    )
    keys = ["boundary_ratio", "block[2x2]", "block[3x3]", "block[5x5]"]
    verdicts = {k: rep.verdicts[k] for k in keys}
    ok = all(v == "vanishing" for v in verdicts.values())
    return ok, [f"squares: {verdicts}"]


def thm4_1(q=DEFAULT_Q, n=DEFAULT_N, terms=DEFAULT_TERMS):
    """Thm. 4.1: on the q = 2 wedge family the horizontal length-2 run ratio
    does not vanish, and the ratio at n = 8 exceeds the rectangular upper
    bound by more than 0.015."""
    rep = systems.condition_report(systems.omega_q_system(2), range(1, 9), m_max=2)
    verdict = rep.verdicts["run_h[m=2]"]
    seq = entropy.system_entropy(golden_mean_horizontal(), systems.omega_q_system(2), 1, 8)
    table = entropy.rect_entropy_table(golden_mean_horizontal(), 12, 12)
    gap = seq.records[-1].ratio - table.h_r_estimate
    ok = verdict == "non_vanishing" and gap > 0.015
    return ok, [
        f"horizontal length-2 ratio verdict: {verdict}",
        f"ratio at n=8 = {real_text(seq.records[-1].ratio)}, rect upper bound = "
        f"{real_text(table.h_r_estimate)}, gap = {real_text(gap)}",
    ]


def thm4_2(q=DEFAULT_Q, n=DEFAULT_N, terms=DEFAULT_TERMS):
    """Thm. 4.2: the square-plus-stick family at n = 48 is within 0.01 of
    (log g + log 2)/2."""
    system = systems.stick_system((0, 1), 0.5)
    target = 0.5 * (entropy.LOG_GOLDEN_MEAN + math.log(2))
    lat = system.lattice(48)
    ratio = counting.log_count(lat, golden_mean_horizontal()) / len(lat)
    diff = abs(ratio - target)
    return diff < 0.01, [
        f"ratio at n=48 = {real_text(ratio)}, target (log g + log 2)/2 = {real_text(target)}",
        f"|difference| = {real_text(diff)} (needs < 0.01)",
    ]


REPRODUCERS = {f.__name__: f for f in (
    eq1_7, eq1_10, eq1_11, eq1_12, eq1_13, eq1_5, prop2_1, lemma3_1, thm4_1, thm4_2,
)}
