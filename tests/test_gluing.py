import math

import pytest

from sftent import (
    SftSpec,
    full_shift,
    golden_mean_horizontal,
    golden_mean_vertical,
    period_forcing_horizontal,
    replay_counterexample,
    verify_block_gluing,
)


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
