import math
import random
import time
import tracemalloc

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftent import (
    ExpandingSystem,
    FiniteLattice,
    NotDecomposable,
    Point,
    SubsetViolation,
    block_decompose,
    block_residue_size,
    boundary,
    boundary_size,
    complement_in,
    condition_report,
    decompose_bands,
    dilate,
    interior,
    is_tessellation,
    lshape,
    rectangle,
    run_census,
    run_length_class,
    staircase,
    stick_augmented,
)
from sftent import lattice
from sftent.lattice import _cover, _region_cover_exists, _torus_cover
from conftest import random_connected_lattice, row_convex_point_sets

point_sets = st.sets(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=0, max_size=30
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def interior_oracle(points):
    pts = set(points)
    return {
        (x, y)
        for x, y in pts
        if (x + 1, y) in pts and (x, y + 1) in pts and (x + 1, y + 1) in pts
    }


def block_oracle(points, k, l):
    """Grid cells (a, b) whose k x l block is fully contained."""
    pts = set(points)
    if not pts:
        return set(), 0
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    full = set()
    for a in range(min(xs) // k - 1, max(xs) // k + 2):
        for b in range(min(ys) // l - 1, max(ys) // l + 2):
            cells = {(a * k + i, b * l + j) for i in range(k) for j in range(l)}
            if cells <= pts:
                full.add((a, b))
    covered = len(full) * k * l
    return full, len(pts) - covered


def run_length_oracle(points, axis, p):
    """Maximal run length through p by walking in both directions."""
    pts = set(points)
    dx, dy = (1, 0) if axis == "horizontal" else (0, 1)
    x, y = p
    length = 1
    cx, cy = x + dx, y + dy
    while (cx, cy) in pts:
        length += 1
        cx, cy = cx + dx, cy + dy
    cx, cy = x - dx, y - dy
    while (cx, cy) in pts:
        length += 1
        cx, cy = cx - dx, cy - dy
    return length


def verify_lattice_tiling(tile, v1, v2, reach=3):
    """Every cell of a window around the origin is covered exactly once."""
    cover = {}
    cells = [(p.x, p.y) for p in tile]
    for a in range(-reach * len(cells), reach * len(cells) + 1):
        for b in range(-reach * len(cells), reach * len(cells) + 1):
            vx = a * v1.x + b * v2.x
            vy = a * v1.y + b * v2.y
            for x, y in cells:
                cover[(x + vx, y + vy)] = cover.get((x + vx, y + vy), 0) + 1
    window = range(-3, 4)
    assert all(cover.get((x, y), 0) == 1 for x in window for y in window)


# ---------------------------------------------------------------------------
# construction and canonical order
# ---------------------------------------------------------------------------


def test_rectangle_examples():
    assert set(rectangle((0, 0), 2, 2)) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert set(rectangle((3, 5), 1, 1)) == {(3, 5)}
    r = rectangle((0, 0), 3, 2)
    assert len(r) == 6
    origin, w, h = r.bbox
    assert (origin, w, h) == ((0, 0), 3, 2)


def test_rectangle_rejects_degenerate_sides():
    with pytest.raises(ValueError):
        rectangle((0, 0), 0, 3)


def test_canonical_row_major_order():
    lat = FiniteLattice([(2, 1), (0, 0), (1, 0), (0, 1), (1, 1), (2, 0)])
    assert list(lat) == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]


def test_duplicates_collapse():
    assert len(FiniteLattice([(1, 1), (1, 1), (0, 0)])) == 2


def test_set_algebra_roundtrip():
    a = rectangle((0, 0), 3, 3)
    b = rectangle((1, 1), 3, 3)
    u = a.union(b)
    assert len(u) == 14
    assert a.intersection(b) == rectangle((1, 1), 2, 2)
    assert u.difference(a).isdisjoint(a)
    assert a.issubset(u) and b.issubset(u)


def test_set_algebra_exact_on_unpackable_coordinates():
    # (2**32, 0) and (0, 1) share the packed key y * 2**32 + x; row runs never pack
    far, near = FiniteLattice([(2**32, 0)]), FiniteLattice([(0, 1)])
    assert not far.issubset(near) and far.isdisjoint(near)
    assert set(far.union(near)) == {(2**32, 0), (0, 1)}
    assert len(far.intersection(near)) == 0
    assert far.difference(near) == far
    edge = FiniteLattice([(-2**31, 2**31 - 1)])
    assert edge.issubset(edge.union(FiniteLattice([(0, 1)])))


def test_translate_and_dilate_stay_in_the_coordinate_range():
    # a move past int64 must raise, not wrap: (2**63 - 3) + 5 would read as -2**63 + 2
    top, bottom = FiniteLattice([(2**63 - 3, 0)]), FiniteLattice([(0, -2**63)])
    for move in (lambda: top.translate((5, 0)), lambda: dilate(top, 4),
                 lambda: bottom.translate((0, -1)), lambda: dilate(bottom, 1),
                 lambda: FiniteLattice().translate((2**63, 0))):
        with pytest.raises(ValueError):
            move()
    assert top.translate((1, -2**63)) == FiniteLattice([(2**63 - 2, -2**63)])
    # moves that do not fit int64 but land in range
    assert FiniteLattice([(-2**63, 0)]).translate((2**63, 0)) == FiniteLattice([(0, 0)])
    assert top.translate((-2**64 + 3, 0)) == FiniteLattice([(-2**63, 0)])
    assert dilate(top, 1) == rectangle((2**63 - 4, -1), 3, 3)


def test_empty_lattice_is_legal():
    empty = FiniteLattice()
    assert len(empty) == 0
    assert interior(empty) == empty
    assert boundary(empty) == empty
    bd = block_decompose(empty, 3, 2)
    assert bd.alpha == 0 and bd.beta == 0
    assert boundary_size(empty) == block_residue_size(empty, 3, 2) == 0


# ---------------------------------------------------------------------------
# interior / boundary
# ---------------------------------------------------------------------------


def test_interior_of_3x3_is_2x2():
    assert interior(rectangle((0, 0), 3, 3)) == rectangle((0, 0), 2, 2)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_interior_of_width_one_strip_is_empty(n):
    assert len(interior(rectangle((0, 0), 1, n))) == 0
    assert len(interior(rectangle((0, 0), n, 1))) == 0


def test_interior_boundary_10x10():
    # oracle: direct membership scan of the definition
    r = rectangle((0, 0), 10, 10)
    expected = interior_oracle(set((p.x, p.y) for p in r))
    assert len(expected) == 81
    assert set((p.x, p.y) for p in interior(r)) == expected
    assert len(boundary(r)) == 19
    assert boundary_size(r) == 19


def test_boundary_of_3x3():
    b = boundary(rectangle((0, 0), 3, 3))
    assert len(b) == 5
    assert set((p.x, p.y) for p in b) == {(2, 0), (2, 1), (0, 2), (1, 2), (2, 2)}


@settings(max_examples=60, deadline=None)
@given(point_sets)
def test_interior_boundary_partition(points):
    lat = FiniteLattice(points)
    inner = interior(lat)
    outer = boundary(lat)
    assert inner.union(outer) == lat
    assert inner.isdisjoint(outer)
    assert len(inner) + len(outer) == len(lat)
    assert set((p.x, p.y) for p in inner) == interior_oracle(points)


# ---------------------------------------------------------------------------
# complements
# ---------------------------------------------------------------------------


def test_complement_examples():
    sq = rectangle((0, 0), 2, 2)
    assert len(complement_in(sq, sq)) == 0
    assert len(complement_in(rectangle((0, 0), 1, 1), sq)) == 3
    # L-shape with n=2 inside its 4x4 bounding square leaves (n^2-n)^2 cells
    comp = complement_in(lshape(2), rectangle((0, 0), 4, 4))
    assert len(comp) == 4
    assert comp == rectangle((2, 2), 2, 2)


def test_complement_requires_subset():
    with pytest.raises(SubsetViolation):
        complement_in(rectangle((0, 0), 3, 1), rectangle((0, 0), 2, 2))


# ---------------------------------------------------------------------------
# block decomposition
# ---------------------------------------------------------------------------


def test_block_decompose_exact_tiling():
    bd = block_decompose(rectangle((0, 0), 4, 4), 2, 2)
    assert bd.alpha == 4 and bd.beta == 0
    assert bd.index_set == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_block_decompose_5x5_against_oracle():
    pts = set((p.x, p.y) for p in rectangle((0, 0), 5, 5))
    expected_full, expected_beta = block_oracle(pts, 2, 2)
    bd = block_decompose(rectangle((0, 0), 5, 5), 2, 2)
    assert bd.alpha == len(expected_full) == 4
    assert bd.beta == expected_beta == 9
    assert bd.index_set == expected_full


def test_block_decompose_unit_blocks():
    lat = FiniteLattice([(0, 0), (5, 7), (-3, 2)])
    bd = block_decompose(lat, 1, 1)
    assert bd.alpha == 3 and bd.beta == 0


@settings(max_examples=40, deadline=None)
@given(point_sets, st.integers(1, 4), st.integers(1, 4))
def test_block_identity_and_oracle(points, k, l):
    lat = FiniteLattice(points)
    bd = block_decompose(lat, k, l)
    assert len(lat) == bd.alpha * k * l + bd.beta
    assert bd.covered.union(bd.residue) == lat
    assert bd.covered.isdisjoint(bd.residue)
    full, beta = block_oracle(points, k, l)
    assert bd.index_set == full and bd.beta == beta
    assert block_residue_size(lat, k, l) == beta


@settings(max_examples=150, deadline=None)
@given(row_convex_point_sets(), st.sampled_from((0, 2**62, -2**62)),
       st.sampled_from((0, 2**62, -2**62)), st.integers(1, 5), st.integers(1, 5))
def test_one_run_per_row_skips_the_kernel_and_matches_the_oracles(points, dx, dy, k, l):
    points = {(x + dx, y + dy) for x, y in points}
    lat = FiniteLattice(points)
    with patch("sftent.lattice._cover", side_effect=AssertionError("coverage kernel called")):
        inner = interior(lat)
        sizes = boundary_size(lat), block_residue_size(lat, k, l)
    full, beta = block_oracle(points, k, l)
    assert set(inner) == interior_oracle(points)
    assert sizes == (len(points) - len(inner), beta)
    assert block_decompose(lat, k, l).index_set == full


def test_full_blocks_at_the_lowest_coordinate():
    # ceil(x0 / k) once wrapped at x0 = -2**63: the 4x2 rectangle there
    # counted 8 residue cells for 2x2 blocks
    low = -2**63
    rect = {(low + i, j) for i in range(4) for j in range(2)}
    gapped = rect | {(low + 5, 0), (low + 5, 1)}       # two runs a row: the kernel's path
    for points in (rect, gapped):
        lat = FiniteLattice(points)
        for k, l in ((2, 2), (3, 1), (1, 2), (4, 2), (3, 2)):
            full, beta = block_oracle(points, k, l)
            bd = block_decompose(lat, k, l)
            assert block_residue_size(lat, k, l) == bd.beta == beta
            assert bd.index_set == full
            rep = condition_report(ExpandingSystem("low", lambda n: lat), [1], block_sizes=[(k, l)])
            assert rep.rows[0].block_ratio == (beta / len(lat),)
    assert block_residue_size(FiniteLattice(rect), 2, 2) == 0


def test_block_alignment_is_global():
    # moving the lattice off the grid origin changes the residue
    assert block_decompose(rectangle((0, 0), 2, 2), 2, 2).beta == 0
    assert block_decompose(rectangle((1, 0), 2, 2), 2, 2).beta == 4


# ---------------------------------------------------------------------------
# run lengths
# ---------------------------------------------------------------------------


def test_run_length_rect_rows():
    r = rectangle((0, 0), 3, 3)
    assert len(run_length_class(r, "horizontal", 3)) == 9
    assert len(run_length_class(r, "horizontal", 1)) == 0
    assert len(run_length_class(r, "horizontal", 2)) == 0


def test_run_length_wedge_single_short_row():
    from sftent import omega_q_plus

    w = omega_q_plus(2, 2)  # rows of lengths 3 (head fiber) and 1
    cls = run_length_class(w, "horizontal", 1)
    assert set((p.x, p.y) for p in cls) == {(0, 1)}


def test_run_length_stick_augmented_oracle():
    # derived by direct run scan: the stick at x=n extends rows y < n of the
    # square, so only its top b+1-n cells are isolated
    lat = stick_augmented(3, (0, 1), 5)
    pts = set((p.x, p.y) for p in lat)
    expected = {p for p in pts if run_length_oracle(pts, "horizontal", p) == 1}
    got = set((p.x, p.y) for p in run_length_class(lat, "horizontal", 1))
    assert got == expected == {(3, 3), (3, 4), (3, 5)}


@settings(max_examples=40, deadline=None)
@given(point_sets, st.sampled_from(["horizontal", "vertical"]))
def test_run_length_partition(points, axis):
    lat = FiniteLattice(points)
    census = run_census(lat, axis)
    assert sum(census.values()) == len(lat)
    seen = FiniteLattice()
    for m in census:
        cls = run_length_class(lat, axis, m)
        assert len(cls) == census[m]
        assert seen.isdisjoint(cls)
        seen = seen.union(cls)
    assert seen == lat
    for p in lat:
        m = run_length_oracle(set((q.x, q.y) for q in lat), axis, (p.x, p.y))
        assert (p.x, p.y) in set(
            (q.x, q.y) for q in run_length_class(lat, axis, m)
        )


# ---------------------------------------------------------------------------
# band decomposition
# ---------------------------------------------------------------------------


def test_bands_rectangle_is_single_band():
    bands = decompose_bands(rectangle((2, 3), 5, 4), "horizontal")
    assert bands == [rectangle((2, 3), 5, 4)]


def test_bands_staircase_two_rectangles():
    bands = decompose_bands(staircase(3), "horizontal")
    assert len(bands) == 2
    union = bands[0].union(bands[1])
    assert union == staircase(3)


def test_bands_plus_pentomino_three():
    plus = FiniteLattice([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])
    bands = decompose_bands(plus, "horizontal")
    assert len(bands) == 3


def test_bands_gap_row_not_decomposable():
    with pytest.raises(NotDecomposable):
        decompose_bands(FiniteLattice([(0, 0), (2, 0)]), "horizontal")
    # the same lattice decomposes along vertical cuts
    bands = decompose_bands(FiniteLattice([(0, 0), (2, 0)]), "vertical")
    assert len(bands) == 2


def test_bands_reunion_on_random_corpus(rng):
    for _ in range(120):
        lat = random_connected_lattice(rng, 30)
        for axis in ("horizontal", "vertical"):
            try:
                bands = decompose_bands(lat, axis)
            except NotDecomposable:
                continue
            total = FiniteLattice()
            for band in bands:
                assert total.isdisjoint(band)
                total = total.union(band)
            assert total == lat


# ---------------------------------------------------------------------------
# row runs against a point-set reference
# ---------------------------------------------------------------------------

cells = st.tuples(st.integers(-9, 9), st.integers(-4, 4))


@st.composite
def wide_point_sets(draw):
    """A few rectangles minus scattered holes, plus scattered points: full
    blocks, several runs per row and negative coordinates."""
    points = set()
    boxes = st.tuples(st.integers(-9, 6), st.integers(-4, 2), st.integers(1, 7), st.integers(1, 5))
    for x, y, w, h in draw(st.lists(boxes, max_size=4)):
        points |= {(x + i, y + j) for i in range(w) for j in range(h)}
    points -= draw(st.sets(cells, max_size=12))
    return points | draw(st.sets(cells, max_size=12))


@settings(max_examples=80, deadline=None)
@given(wide_point_sets(), wide_point_sets(), st.integers(1, 4), st.integers(1, 4),
       st.tuples(st.integers(-7, 7), st.integers(-7, 7)))
def test_row_runs_match_point_set_reference(points, other, k, l, v):
    lat, oth = FiniteLattice(points), FiniteLattice(other)
    assert len(lat) == len(points)
    assert list(lat) == sorted(points, key=lambda p: (p[1], p[0]))
    assert all(((x, y) in lat) == ((x, y) in points) for x in range(-10, 11) for y in range(-5, 6))
    inner = interior_oracle(points)
    assert set(interior(lat)) == inner
    assert set(boundary(lat)) == points - inner
    assert boundary_size(lat) == len(points) - len(inner)
    for bk, bl in ((k, k), (k, l)):
        full, beta = block_oracle(points, bk, bl)
        bd = block_decompose(lat, bk, bl)
        assert block_residue_size(lat, bk, bl) == bd.beta == beta
        assert bd.index_set == full and bd.alpha == len(full)
        covered = {(a * bk + i, b * bl + j) for a, b in full for i in range(bk) for j in range(bl)}
        assert set(bd.covered) == covered and set(bd.residue) == points - covered
    for axis in ("horizontal", "vertical"):
        length = {p: run_length_oracle(points, axis, p) for p in points}
        census: dict = {}
        for m in length.values():
            census[m] = census.get(m, 0) + 1
        assert run_census(lat, axis) == census
        for m in set(census) | {1, 2}:
            assert set(run_length_class(lat, axis, m)) == {p for p in points if length[p] == m}
    assert set(lat.union(oth)) == points | other
    assert set(lat.intersection(oth)) == points & other
    assert set(lat.difference(oth)) == points - other
    assert lat.issubset(oth) == (points <= other)
    assert lat.isdisjoint(oth) == points.isdisjoint(other)
    assert lat.issubset(FiniteLattice(points | other))
    assert FiniteLattice(points - other).isdisjoint(oth)
    flipped = lat.transpose()
    assert flipped == FiniteLattice([(y, x) for x, y in points])
    assert flipped.transpose() == lat
    assert lat.translate(v) == FiniteLattice([(x + v[0], y + v[1]) for x, y in points])


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), st.integers(1, 7), st.integers(1, 7))
def test_rectangle_equals_its_point_set(origin, m, n):
    rect = rectangle(origin, m, n)
    points = FiniteLattice(list(rect))
    assert rect == points and hash(rect) == hash(points)
    # the rectangle's own transpose against the one paired from run ends
    assert rect.transpose() == points.transpose() == rectangle(origin[::-1], n, m)
    assert hash(rect.transpose()) == hash(points.transpose())


def test_ten_million_cell_geometry_stays_in_row_runs():
    m, n = 10_000, 1_000
    tracemalloc.start()
    try:
        rect = rectangle((0, 0), m, n)
        assert len(rect) == m * n
        assert boundary_size(rect) == m + n - 1
        for k in (2, 3):
            assert block_residue_size(rect, k, k) == m * n - (m // k) * (n // k) * k * k
        assert run_census(rect, "horizontal") == {m: m * n}
        assert run_census(rect, "vertical") == {n: m * n}
        # a staircase: its vertical runs come from pairing run ends, not a seed
        stairs = rect.union(rectangle((0, n), m // 2, n))
        assert boundary_size(stairs) == m + 2 * n - 1
        assert run_census(stairs, "vertical") == {n: m // 2 * n, 2 * n: m // 2 * 2 * n}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 10**7 (x, y) coordinates alone would take 160 MB
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# tessellations
# ---------------------------------------------------------------------------


def test_tessellation_rectangle():
    res = is_tessellation(rectangle((0, 0), 3, 2))
    assert res.status == "yes"
    assert res.periods == (Point(3, 0), Point(0, 2))
    verify_lattice_tiling(rectangle((0, 0), 3, 2), *res.periods)


def test_tessellation_l_tromino():
    res = is_tessellation(FiniteLattice([(0, 0), (1, 0), (0, 1)]))
    assert res.status == "yes"
    verify_lattice_tiling(FiniteLattice([(0, 0), (1, 0), (0, 1)]), *res.periods)


def test_tessellation_plus_pentomino():
    # derived from the exhaustive lattice search: the plus shape is a perfect
    # packing of the radius-1 diamond, periods (5,0), (2,1)
    plus = FiniteLattice([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])
    res = is_tessellation(plus)
    assert res.status == "yes"
    verify_lattice_tiling(plus, *res.periods)


def test_tessellation_u_pentomino_refuted():
    u = FiniteLattice([(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)])
    assert is_tessellation(u).status == "no"


def test_tessellation_lshape():
    res = is_tessellation(lshape(2))
    assert res.status == "yes"
    verify_lattice_tiling(lshape(2), *res.periods, reach=2)


@pytest.mark.parametrize("gap", [20, 24, 30])
def test_tessellation_far_pair_searches_without_recursion(gap):
    # the region cover places hundreds of translates deep, past Python's
    # recursion limit; no small torus fits the pair, so the verdict is open
    res = is_tessellation(FiniteLattice([(0, 0), (gap, 0)]))
    assert res.status == "unknown"


def test_tiling_cover_node_caps():
    # every entered node counts once: the refutation of the U pentomino on
    # the radius-4 region enters 245 nodes, a domino cover of the 2x3 torus 4
    u = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)]
    assert _region_cover_exists(u, 4, node_cap=244) is None
    assert _region_cover_exists(u, 4, node_cap=245) is False
    domino = [(0, 0), (1, 0)]
    assert _torus_cover(domino, 2, 3, node_cap=3) is False
    assert _torus_cover(domino, 2, 3, node_cap=4) is True


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------


def test_dilate_singleton():
    d = dilate(FiniteLattice([(0, 0)]), 1)
    assert d == rectangle((-1, -1), 3, 3)


def test_dilate_zero_is_identity():
    lat = FiniteLattice([(0, 0), (2, 2)])
    assert dilate(lat, 0) == lat


@pytest.mark.parametrize("copies", [0, lattice._DILATE_COPIES])
def test_dilate_unites_the_rows_of_its_window(copies):
    # a running max/min of the widened runs would give row 2 the hull [-3, 104)
    with patch.object(lattice, "_DILATE_COPIES", copies):
        d = dilate(FiniteLattice([(0, 0), (100, 5)]), 3)
    assert d._runs[d._runs[:, 0] == 2].tolist() == [[2, -3, 4], [2, 97, 104]]
    assert len(d) == 2 * 49


@pytest.mark.parametrize("copies", [0, lattice._DILATE_COPIES])
def test_dilate_matches_shifted_copies_and_point_sets(copies):
    # the union of 2 * radius + 1 row-shifted copies of the widened runs, and
    # for small radii every point within Chebyshev distance radius; with no
    # copies allowed every dilation takes the slabs
    rng = random.Random(11)
    with patch.object(lattice, "_DILATE_COPIES", copies):
        for _ in range(120):
            w, h, density = rng.randint(1, 12), rng.randint(1, 12), rng.random()
            points = [(x, y) for x in range(w) for y in range(h) if rng.random() < density]
            points += [(x + 40, y - 25) for x, y in points[:rng.randint(0, 5)]]
            lat = FiniteLattice(points)
            for radius in (1, 2, rng.randint(3, 20)):
                wide = lat._runs + np.array([0, -radius, radius], dtype=np.int64)
                shifted = _cover(lambda c: c >= 1, *[(wide, dy, 1) for dy in range(-radius, radius + 1)])
                assert np.array_equal(dilate(lat, radius)._runs, shifted)
                if radius <= 2:
                    near = {(x + dx, y + dy) for x, y in points
                            for dx in range(-radius, radius + 1) for dy in range(-radius, radius + 1)}
                    assert dilate(lat, radius) == FiniteLattice(near)
        assert dilate(FiniteLattice(), 5) == FiniteLattice()
        assert dilate(FiniteLattice([(2**63 - 3, 0)]), 1) == rectangle((2**63 - 4, -1), 3, 3)


def test_dilate_costs_its_result_not_its_radius():
    start = time.perf_counter()
    d = dilate(rectangle((0, 0), 2, 2), 10**5)
    assert time.perf_counter() - start < 0.1
    assert d == rectangle((-10**5, -10**5), 2 * 10**5 + 2, 2 * 10**5 + 2)
