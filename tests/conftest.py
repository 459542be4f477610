import random
from unittest.mock import PropertyMock, patch

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from sftent import FiniteLattice

# every run draws the same examples, so a failing draw fails every run alike
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def cap_address_space() -> None:
    """Lower the soft RLIMIT_AS to the address space now plus 2 GiB, so a
    runaway test (a shrinking property test, say) fails with MemoryError
    instead of taking the host's memory.  A lower limit stays; where the
    platform has no ``resource`` module or no /proc, nothing changes."""
    try:
        import resource
        with open("/proc/self/status") as fh:
            size = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
    except (ImportError, OSError, StopIteration):
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + 2 * 2**30 if hard == resource.RLIM_INFINITY else min(size + 2 * 2**30, hard)
    if soft == resource.RLIM_INFINITY or cap < soft:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


cap_address_space()


def random_connected_lattice(rng: random.Random, max_cells: int) -> FiniteLattice:
    """Grow a connected 4-neighbour set from the origin (test corpus helper)."""
    target = rng.randint(1, max_cells)
    cells = {(0, 0)}
    frontier = [(0, 0)]
    while len(cells) < target and frontier:
        x, y = rng.choice(frontier)
        nbrs = [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
        fresh = [c for c in nbrs if c not in cells]
        if not fresh:
            frontier.remove((x, y))
            continue
        c = rng.choice(fresh)
        cells.add(c)
        frontier.append(c)
    return FiniteLattice(cells)


def meet_off():
    """A patch telling every lattice that some row holds two runs, so
    placements and full blocks take the coverage kernel's path."""
    return patch.object(FiniteLattice, "_one_run_per_row", new_callable=PropertyMock, return_value=False)


@st.composite
def row_convex_point_sets(draw, min_rects: int = 0):
    """Point sets with at most one run per row: up to 5 rectangles (single
    cells among them) stacked upwards at random x offsets, with a gap of
    empty rows between some of them."""
    points, y = set(), draw(st.integers(-6, 6))
    for _ in range(draw(st.integers(min_rects, 5))):
        x, w, h = draw(st.integers(-6, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 5))
        points |= {(x + i, y + j) for i in range(w) for j in range(h)}
        y += h + draw(st.sampled_from((0, 0, 0, 1, 2)))
    return points


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
