import math
from functools import partial
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sftent import (
    BudgetExceeded,
    SftSpec,
    dilate,
    enumerate_admissible,
    full_shift,
    golden_mean_horizontal,
    golden_mean_vertical,
    period_forcing_horizontal,
    rectangle,
    replay_counterexample,
    verify_block_gluing,
)
from sftent import counting, gluing
from sftent.counting import admissible_extension_exists
from sftent.gluing import GluingCounterexample, GluingVerdict, rectangle_separation
from sftent.sft import Pattern


def test_golden_mean_glues_at_gap_one():
    verdict = verify_block_gluing(golden_mean_horizontal(), gap=1, window=3, extent=6)
    assert verdict.verified
    assert verdict.counterexample is None
    assert verdict.method.startswith("padding-witness")
    assert verdict.offsets_checked > 0


def test_golden_mean_vertical_variant():
    verdict = verify_block_gluing(
        golden_mean_vertical(), gap=1, window=3, extent=6, variant="vertical"
    )
    assert verdict.verified


def test_full_shift_glues_trivially():
    assert verify_block_gluing(full_shift(2), gap=1, window=2, extent=4).verified


def test_period_forcing_counterexample():
    spec = period_forcing_horizontal()
    verdict = verify_block_gluing(spec, gap=1, window=2, extent=4, variant="full")
    assert not verdict.verified
    cex = verdict.counterexample
    assert cex is not None
    assert cex.separation >= 1
    # phase mismatch on a shared row: replay must find no joint extension
    assert replay_counterexample(spec, cex) == 0


def test_period_forcing_horizontal_variant_counterexample():
    spec = period_forcing_horizontal()
    verdict = verify_block_gluing(spec, gap=1, window=2, extent=4, variant="horizontal")
    assert not verdict.verified
    assert verdict.counterexample.offset.y == 0
    assert replay_counterexample(spec, verdict.counterexample) == 0


def test_period_forcing_vertical_variant_verified():
    # rows are independent, so vertically separated blocks always glue
    spec = period_forcing_horizontal()
    verdict = verify_block_gluing(spec, gap=1, window=2, extent=3, variant="vertical")
    assert verdict.verified
    assert verdict.method == "exhaustive-pairs"
    assert verdict.pairs_checked > 0


def test_full_verified_implies_variants():
    specs = [golden_mean_horizontal(), full_shift(2)]
    for spec in specs:
        full = verify_block_gluing(spec, gap=1, window=2, extent=4, variant="full")
        if full.verified:
            for variant in ("horizontal", "vertical"):
                assert verify_block_gluing(
                    spec, gap=1, window=2, extent=4, variant=variant
                ).verified


def test_larger_gap_weakens_the_requirement():
    # at gap 3 the period-forcing spec still fails on a shared row: the row
    # phase propagates across any distance
    spec = period_forcing_horizontal()
    verdict = verify_block_gluing(spec, gap=3, window=2, extent=5, variant="horizontal")
    assert not verdict.verified
    assert verdict.counterexample.separation >= 3
    assert replay_counterexample(spec, verdict.counterexample) == 0


def test_window_validation():
    with pytest.raises(ValueError):
        verify_block_gluing(golden_mean_horizontal(), window=5)
    with pytest.raises(ValueError):
        verify_block_gluing(golden_mean_horizontal(), variant="diagonal")


def test_gluing_verdicts_are_never_vacuous():
    # period-forcing fails at gap 1; a gap or extent that leaves no offset to
    # check raises, rather than verifying with no offset checked
    spec = period_forcing_horizontal()
    assert not verify_block_gluing(spec, gap=1, window=2, extent=4).verified
    for kwargs, message in (({"gap": math.nan}, "gap"), ({"gap": 100}, "extent 4 reaches gap"),
                            ({"gap": math.inf}, "extent 4 reaches gap"),
                            ({"extent": 0}, "extent"), ({"extent": -3}, "extent")):
        with pytest.raises(ValueError, match=message):
            verify_block_gluing(spec, **{"gap": 1, "window": 2, "extent": 4, **kwargs})
    # the gap is a real, as elsewhere: bools and strings raise
    for gap in (True, "1", None):
        with pytest.raises(ValueError, match="real number"):
            verify_block_gluing(spec, gap=gap, window=2, extent=4)
    # a padding witness covers every offset, so it still verifies there
    verdict = verify_block_gluing(golden_mean_horizontal(), gap=100, window=3, extent=6)
    assert verdict.verified and verdict.method.startswith("padding-witness")
    assert verdict.offsets_checked == 0
    with pytest.raises(ValueError, match="extent"):
        verify_block_gluing(golden_mean_horizontal(), extent=0)


WINDOW2 = [(x, y) for x in range(2) for y in range(2)]


def per_pair_verdict(spec, gap, window, extent, variant):
    """The verdict of asking one extension question per pair of windows."""
    offsets = gluing._offsets(gap, window, extent, variant)
    base = rectangle((0, 0), window, window)
    admissible = [Pattern(base, syms) for syms in enumerate_admissible(base, spec)]
    margin = max(1, spec.forbidden_diameter)
    pairs_checked = 0
    for offset in offsets:
        shifted = base.translate(offset)
        joint = dilate(base.union(shifted), margin)
        for first in admissible:
            for second in admissible:
                pairs_checked += 1
                fixed = {**dict(zip(base, first.symbols)), **dict(zip(shifted, second.symbols))}
                if not admissible_extension_exists(joint, spec, fixed, budget=10**5):
                    cex = GluingCounterexample(first, Pattern(shifted, second.symbols), offset,
                                               rectangle_separation(offset, window))
                    return GluingVerdict(spec.name, gap, window, extent, variant, False, cex,
                                         "exhaustive-pairs", len(offsets), pairs_checked)
    return GluingVerdict(spec.name, gap, window, extent, variant, True, None,
                         "exhaustive-pairs", len(offsets), pairs_checked)


@st.composite
def no_safe_symbol_specs(draw):
    """Specs on 1-3 cells of a 2x2 window, N in {2, 3}, that use every symbol."""
    n = draw(st.sampled_from((2, 3)))
    pattern = st.lists(st.tuples(st.sampled_from(WINDOW2), st.integers(0, n - 1)),
                       min_size=1, max_size=3, unique_by=lambda cell: cell[0])
    spec = SftSpec.make(n, draw(st.lists(pattern, min_size=1, max_size=4)))
    assume(not spec.safe_symbols)
    return spec


def test_gluing_sweep_matches_per_pair_searches():
    # whole verdicts, counterexample and counts included, equal those of one
    # search per pair in (first, second) order, also when small budgets
    # gather an offset's pairs into several sets of first windows and split
    # each set into several sweeps, and when every sweep stops for the searches
    gather, sets = counting._question_sets, []

    def counted(questions, budget):
        sets.append(0)
        for symbols in gather(questions, budget):
            sets[-1] += 1
            yield symbols

    @settings(max_examples=60, deadline=None)
    @given(no_safe_symbol_specs(), st.sampled_from((1, 2)), st.sampled_from((1, 2)),
           st.sampled_from(("full", "horizontal", "vertical")))
    # 9 windows: at budget 64 each first window's 72 pinned symbols make one set
    @example(SftSpec.make(2, [[((0, 0), 0), ((0, 1), 1)]]), 1, 2, "full")
    def check(spec, gap, window, variant):
        assume(window == 1 or spec.alphabet_size == 2)
        extent = window + 1       # reaches gap 2
        try:
            expected = per_pair_verdict(spec, gap, window, extent, variant)
        except BudgetExceeded:      # the reference search gave up
            assume(False)
        assert verify_block_gluing(spec, gap, window, extent, variant) == expected
        with patch.object(counting, "_CELL_SEARCH_WEIGHTS", 0):
            assert verify_block_gluing(spec, gap, window, extent, variant) == expected
        for budget in (64, 256, 1024):
            with patch.object(gluing, "_extensions", partial(counting._extensions, budget=budget)), \
                    patch.object(counting, "_CELL_SEARCH_WEIGHTS", math.inf), \
                    patch.object(counting, "_question_sets", counted):
                try:
                    verdict = verify_block_gluing(spec, gap, window, extent, variant)
                except BudgetExceeded:      # neither a single pair's sweep nor its search fits
                    continue
            assert verdict == expected
    check()
    assert max(sets) > 1      # some offset's pairs were swept in more than one set
