import pytest

from orient_augment import plane_graph as pg
from orient_augment import pog_io


@pytest.fixture
def triangle():
    """Directed 3-cycle 0->1->2->0."""
    return pg.build(3, [(0, 1), (1, 2), (2, 0)], [(0, 5), (2, 1), (4, 3)])


@pytest.fixture
def single_arc():
    return pg.build(2, [(0, 1)], [(0,), (1,)])


@pytest.fixture
def path3():
    """Directed path 0->1->2."""
    return pg.build(3, [(0, 1), (1, 2)], [(0,), (1, 2), (3,)])


@pytest.fixture
def simple_square():
    """Chordless 4-cycle with one local source (0) and one local sink (2):
    arcs 0->1, 1->2, 0->3, 3->2."""
    return pg.build(4, [(0, 1), (1, 2), (0, 3), (3, 2)], [(0, 4), (2, 1), (3, 7), (6, 5)])


@pytest.fixture
def alternating_square():
    """4-cycle with two sources (0, 2) and two sinks (1, 3)."""
    return pg.build(4, [(0, 1), (2, 1), (2, 3), (0, 3)], [(0, 6), (1, 3), (2, 4), (5, 7)])


@pytest.fixture(scope="session")
def random78():
    """Instance i of the random n = 7/8 acceptance set, as a function of i
    (the formula of test_acceptance.random_instances)."""
    def make(i):
        n = 7 + (i % 2)
        m = (n - 1) + (i * 7919) % (3 * n - 6 - (n - 1) + 1)
        return pog_io.gen_random(n, m, seed=1000 + i)
    return make


def build_cycle(orientations):
    """Cycle v0..v_{n-1}; orientations[i] True means arc v_i -> v_{i+1}."""
    n = len(orientations)
    arcs = []
    for i in range(n):
        j = (i + 1) % n
        arcs.append((i, j) if orientations[i] else (j, i))
    rotation = []
    for v in range(n):
        fwd = 2 * v + (0 if orientations[v] else 1)
        prev = (v - 1) % n
        bwd = 2 * prev + (1 if orientations[prev] else 0)
        rotation.append((fwd, bwd))
    return pg.build(n, arcs, rotation)


@pytest.fixture(scope="session")
def cycle():
    """``build_cycle``, for tests that orient cycles of their own."""
    return build_cycle


@pytest.fixture
def alternating_octagon():
    """8-cycle with 4 local sources and 4 local sinks on each side."""
    return build_cycle([True, False] * 4)
