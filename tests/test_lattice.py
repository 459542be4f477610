import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftent import (
    FiniteLattice,
    NotDecomposable,
    Point,
    SubsetViolation,
    block_decompose,
    block_residue_size,
    boundary,
    boundary_size,
    complement_in,
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
from conftest import random_connected_lattice

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


def test_set_algebra_rejects_unpackable_coordinates():
    # (2**32, 0) and (0, 1) pack to the same int64 key without the range check
    with pytest.raises(ValueError):
        FiniteLattice([(2**32, 0)]).issubset(FiniteLattice([(0, 1)]))
    edge = FiniteLattice([(-2**31, 2**31 - 1)])
    assert edge.issubset(edge.union(FiniteLattice([(0, 1)])))


def test_empty_lattice_is_legal():
    empty = FiniteLattice()
    assert len(empty) == 0
    assert interior(empty) == empty
    assert boundary(empty) == empty
    bd = block_decompose(empty, 3, 2)
    assert bd.alpha == 0 and bd.beta == 0


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


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------


def test_dilate_singleton():
    d = dilate(FiniteLattice([(0, 0)]), 1)
    assert d == rectangle((-1, -1), 3, 3)


def test_dilate_zero_is_identity():
    lat = FiniteLattice([(0, 0), (2, 2)])
    assert dilate(lat, 0) == lat
