import random

import pytest
from hypothesis import settings

from sftent import FiniteLattice

# every run draws the same examples, so a failing draw fails every run alike
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
