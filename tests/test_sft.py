import itertools
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftent import (
    FiniteLattice,
    ForbiddenPattern,
    Pattern,
    SftSpec,
    SymbolOutOfRange,
    full_shift,
    golden_mean_horizontal,
    golden_mean_vertical,
    is_locally_admissible,
    placements,
    rectangle,
)
from sftent.lattice import _cover, _placement_runs
from sftent.sft import forbidden_occurrences
from conftest import meet_off


def admissible_count_oracle(lat, spec):
    """Independent enumeration: try every assignment via itertools.product."""
    cells = list(lat)
    total = 0
    for symbols in itertools.product(range(spec.alphabet_size), repeat=len(cells)):
        if is_locally_admissible(Pattern(lat, symbols), spec):
            total += 1
    return total


# ---------------------------------------------------------------------------
# forbidden patterns and specs
# ---------------------------------------------------------------------------


def test_forbidden_pattern_canonicalises_offsets():
    p = ForbiddenPattern.make([((5, 7), 1), ((6, 7), 1)])
    assert [(c.x, c.y) for c, _ in p.cells] == [(0, 0), (1, 0)]


def test_forbidden_pattern_rejects_duplicates():
    with pytest.raises(ValueError):
        ForbiddenPattern.make([((0, 0), 1), ((0, 0), 0)])


def test_spec_dedups_translates():
    spec = SftSpec.make(
        2,
        [
            [((0, 0), 1), ((1, 0), 1)],
            [((4, 2), 1), ((5, 2), 1)],  # same pattern, shifted
        ],
    )
    assert len(spec.forbidden) == 1


def test_spec_rejects_bad_symbols():
    with pytest.raises(SymbolOutOfRange):
        SftSpec.make(2, [[((0, 0), 2)]])


def test_builtin_golden_mean_shapes():
    h = golden_mean_horizontal()
    v = golden_mean_vertical()
    assert h.alphabet_size == 2 and len(h.forbidden) == 1
    assert h.pure_axis == "horizontal"
    assert v.pure_axis == "vertical"
    assert h.transpose().forbidden == v.forbidden
    assert full_shift(2).pure_axis == "horizontal"  # vacuous constraints
    assert h.safe_symbols == (0,)


# ---------------------------------------------------------------------------
# placements
# ---------------------------------------------------------------------------


def test_placements_domino_in_strip():
    domino = FiniteLattice([(0, 0), (1, 0)])
    assert placements(domino, rectangle((0, 0), 3, 1)) == [(0, 0), (1, 0)]


def test_placements_square_in_itself():
    sq = rectangle((0, 0), 2, 2)
    assert placements(sq, sq) == [(0, 0)]


def test_placements_never_fits():
    domino = FiniteLattice([(0, 0), (1, 0)])
    diag = FiniteLattice([(0, 0), (1, 1), (2, 2)])
    assert placements(domino, diag) == []


def test_placements_canonical_order():
    domino = FiniteLattice([(0, 0), (1, 0)])
    sq = rectangle((0, 0), 3, 2)
    assert placements(domino, sq) == [(0, 0), (1, 0), (0, 1), (1, 1)]


WINDOW = [(0, 0), (1, 0), (0, 1), (1, 1)]
# every shape in a 2x2 window (single cells and L-triominoes among them), and
# 1x3 runs both ways
ORACLE_SHAPES = [[c for i, c in enumerate(WINDOW) if m >> i & 1] for m in range(1, 16)]
ORACLE_SHAPES += [[(0, 0), (1, 0), (2, 0)], [(0, 0), (0, 1), (0, 2)]]
# a skipped row (the searchsorted meet), a gap inside a row (one kernel part
# per row run), and both
ORACLE_SHAPES += [[(0, 0), (0, 2)], [(0, 0), (2, 0)], [(0, 0), (2, 0), (1, 2)]]


def placements_reference(offsets, points):
    """Every v with offsets + v inside the point set, in (y, x) order: each
    point anchors the first offset, and every offset is looked up."""
    ax, ay = offsets[0]
    found = [(x - ax, y - ay) for x, y in points
             if all((x - ax + dx, y - ay + dy) in points for dx, dy in offsets)]
    return sorted(found, key=lambda v: (v[1], v[0]))


def random_points(rng):
    """A random point set with holes and negative coordinates, sometimes two
    clusters far apart."""
    ox, oy = rng.randint(-40, 5), rng.randint(-40, 5)
    w, h = rng.randint(1, 9), rng.randint(1, 9)
    points = {(ox + x, oy + y) for x in range(w) for y in range(h) if rng.random() < 0.7}
    if rng.random() < 0.3:
        points |= {(x + 50, -y) for x, y in points if rng.random() < 0.8}
    return points or {(ox, oy)}


def row_convex_points(rng):
    """A seeded point set with one run per row, as conftest's
    `row_convex_point_sets` draws them: up to 5 rectangles stacked upwards at
    random x offsets, with a gap of empty rows above some of them."""
    points, y = set(), rng.randint(-6, 6)
    for _ in range(rng.randint(1, 5)):
        x, w, h = rng.randint(-6, 6), rng.randint(1, 8), rng.randint(1, 5)
        points |= {(x + i, y + j) for i in range(w) for j in range(h)}
        y += h + rng.choice((0, 1, 2))
    return points


def one_run_per_row(points) -> bool:
    rows = {}
    for x, y in points:
        rows.setdefault(y, []).append(x)
    return all(max(xs) - min(xs) + 1 == len(xs) for xs in rows.values())


def meet_fits(offsets, points) -> bool:
    """Whether the row meet of `offsets` over `points` keeps its arithmetic
    in int64: the shape's lowest row is 0, the lattice's rows plus the
    shape's height stay in range, and so do its run starts less each shape
    row's least dx and its run ends less each row's greatest dx, bounded by
    a start of at least min x and an end of at most max x + 1, one past a
    start."""
    rows = {}
    for dx, dy in offsets:
        rows.setdefault(dy, []).append(dx)
    lo, hi = [min(r) for r in rows.values()], [max(r) for r in rows.values()]
    xs, ys = [x for x, _ in points], [y for _, y in points]
    return (min(rows) == 0 and max(ys) + max(rows) < 2**63
            and min(xs) - max(max(lo), max(hi) - 1) >= -2**63
            and max(xs) + 1 - min(min(hi), min(lo) + 1) < 2**63)


@pytest.mark.parametrize("seed", range(10))
def test_placements_exact_on_any_int64_coordinates(seed):
    # placements meet row runs, so they hold wherever a lattice lies: at the
    # origin, at 2**32, and touching -2**63 or 2**63 - 2, where moving a run
    # back by a shape cell must not wrap.  Vectors are coordinates too: one
    # outside [-2**63, 2**63 - 1) (a shape clear of its own origin) is not
    # listed.  A lattice with one run per row, here with a copy 2**62 up and
    # right, takes the row meet; where the meet's arithmetic could leave int64
    # (the shape reaching that copy, near the range's ends) or the shape's
    # lowest row is not 0, it falls back to the coverage kernel
    rng = random.Random(seed)
    shapes = ORACLE_SHAPES + [[(0, 0), (-1, 0)], [(0, 0), (-2, 0)], [(0, -1), (0, 0), (-1, 1)],
                              [(0, 0), (2**62, 2**62)]]
    holey = random_points(rng)
    convex = row_convex_points(rng)
    for points in (holey, convex | {(x + 2**62, y + 2**62) for x, y in convex}):
        xs, ys = [x for x, _ in points], [y for _, y in points]
        for dx, dy in ((0, 0), (2**32, -2**32), (-2**63 - min(xs), 0), (0, -2**63 - min(ys)),
                       (2**63 - 2 - max(xs), 2**63 - 2 - max(ys))):
            moved = {(x + dx, y + dy) for x, y in points}
            lat = FiniteLattice(moved)
            for offsets in shapes:
                expected = placements_reference(offsets, moved)
                with patch("sftent.lattice._cover", side_effect=_cover) as kernel:
                    assert placements(FiniteLattice(offsets), lat) == [
                        v for v in expected if -2**63 <= min(v) and max(v) < 2**63 - 1]
                meet = one_run_per_row(moved) and meet_fits(offsets, moved)
                assert kernel.called is not meet
                if meet:     # the kernel's own canonical runs, dtype and order
                    runs = _placement_runs(tuple(offsets), lat)
                    with meet_off():
                        reference = _placement_runs(tuple(offsets), lat)
                    assert runs.dtype == reference.dtype and np.array_equal(runs, reference)
    domino = FiniteLattice([(0, 0), (1, 0)])
    assert placements(domino, FiniteLattice([(-2**63, 0), (-2**63 + 1, 0)])) == [(-2**63, 0)]


@pytest.mark.parametrize("seed", range(40))
def test_placements_and_occurrences_match_set_reference(seed):
    # a holey point set, then one with one run per row, whose placements are
    # row meets
    rng = random.Random(seed)
    for draw in (random_points, row_convex_points):
        points = draw(rng)
        lat = FiniteLattice(points)
        for offsets in ORACLE_SHAPES:
            assert placements(FiniteLattice(offsets), lat) == placements_reference(offsets, points)
        # occurrences: each pattern's placements, as indices into canonical order
        spec = SftSpec.make(3, [[(c, rng.randrange(3)) for c in offsets] for offsets in ORACLE_SHAPES])
        index = {p: i for i, p in enumerate(sorted(points, key=lambda p: (p[1], p[0])))}
        expected = []
        for pat in spec.forbidden:
            offsets = [(c.x, c.y) for c, _ in pat.cells]
            for vx, vy in placements_reference(offsets, points):
                expected.append((tuple(index[(x + vx, y + vy)] for x, y in offsets),
                                 tuple(s for _, s in pat.cells)))
        assert forbidden_occurrences(lat, spec) == expected


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_forbidden_pair_is_inadmissible():
    strip = rectangle((0, 0), 2, 1)
    assert not is_locally_admissible(Pattern(strip, (1, 1)), golden_mean_horizontal())
    assert is_locally_admissible(Pattern(strip, (1, 0)), golden_mean_horizontal())


def test_vertical_column_of_ones_is_admissible():
    column = rectangle((0, 0), 1, 5)
    ones = Pattern(column, (1,) * 5)
    assert is_locally_admissible(ones, golden_mean_horizontal())
    assert not is_locally_admissible(ones, golden_mean_vertical())


def test_all_zero_is_admissible_everywhere():
    for spec in (golden_mean_horizontal(), golden_mean_vertical()):
        lat = FiniteLattice([(0, 0), (3, 1), (1, 1), (2, 0)])
        assert is_locally_admissible(Pattern(lat, (0,) * 4), spec)


def test_symbol_out_of_range_raises():
    with pytest.raises(SymbolOutOfRange):
        is_locally_admissible(
            Pattern(rectangle((0, 0), 1, 1), (3,)), golden_mean_horizontal()
        )


def test_nine_admissible_2x2_patterns():
    # enumerated by the independent oracle
    assert admissible_count_oracle(rectangle((0, 0), 2, 2), golden_mean_horizontal()) == 9


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8),
    st.data(),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
def test_translation_invariance(points, data, v):
    lat = FiniteLattice(points)
    symbols = tuple(
        data.draw(st.integers(0, 1), label=f"sym{i}") for i in range(len(lat))
    )
    pat = Pattern(lat, symbols)
    spec = golden_mean_horizontal()
    assert is_locally_admissible(pat, spec) == is_locally_admissible(
        pat.translate(v), spec
    )


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8),
    st.data(),
)
def test_transpose_exchanges_the_two_golden_specs(points, data):
    lat = FiniteLattice(points)
    symbols = tuple(
        data.draw(st.integers(0, 1), label=f"sym{i}") for i in range(len(lat))
    )
    pat = Pattern(lat, symbols)
    assert is_locally_admissible(pat, golden_mean_horizontal()) == is_locally_admissible(
        pat.transpose(), golden_mean_vertical()
    )


def test_restriction_of_admissible_is_admissible(rng):
    from conftest import random_connected_lattice

    spec = golden_mean_horizontal()
    for _ in range(40):
        lat = random_connected_lattice(rng, 10)
        for symbols in itertools.product((0, 1), repeat=len(lat)):
            pat = Pattern(lat, symbols)
            if not is_locally_admissible(pat, spec):
                continue
            pts = list(lat)
            sub_pts = [p for i, p in enumerate(pts) if i % 2 == 0]
            sub = FiniteLattice(sub_pts)
            sub_pat = Pattern(sub, tuple(pat.symbol(p) for p in sub))
            assert is_locally_admissible(sub_pat, spec)
            break
