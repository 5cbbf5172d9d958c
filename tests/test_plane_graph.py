import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orient_augment import plane_graph as pg
from orient_augment import pog_io
from orient_augment.errors import (
    CrossingArcs, DuplicateArcEnd, ModeViolation, StaleAngle,
)


def build_k4():
    arcs = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]
    coords = {0: (0, 2.0), 1: (2, -1.0), 2: (-2, -1.0), 3: (0, 0.0)}
    ends = {}
    for a, (u, v) in enumerate(arcs):
        ends.setdefault(u, []).append((2 * a, v))
        ends.setdefault(v, []).append((2 * a + 1, u))
    rot = []
    for v in range(4):
        def bearing(item):
            d, w = item
            dx = coords[w][0] - coords[v][0]
            dy = coords[w][1] - coords[v][1]
            return math.atan2(dx, dy) % (2 * math.pi)
        rot.append(tuple(d for d, _ in sorted(ends[v], key=bearing)))
    return pg.build(4, arcs, rot)


def test_triangle_faces(triangle):
    assert triangle.f == 2
    assert triangle.euler_characteristic() == 2
    assert triangle.connected


def test_digon_rejected_in_oriented_mode():
    with pytest.raises(ModeViolation):
        pg.build(2, [(0, 1), (1, 0)], [(0, 3), (2, 1)], mode="oriented")


def test_digon_fine_in_directed_mode():
    D = pg.build(2, [(0, 1), (1, 0)], [(0, 3), (2, 1)], mode="directed")
    assert D.f == 2


def test_duplicate_arc_end_rejected():
    with pytest.raises(DuplicateArcEnd):
        pg.build(2, [(0, 1)], [(0, 0), (1,)])
    with pytest.raises(DuplicateArcEnd):
        pg.build(2, [(0, 1)], [(1,), (0,)])  # ends at the wrong vertices


def test_rotation_errors_name_the_arc_end():
    cases = [
        ([(0, 2), (1,)], "arc end 2 listed at vertex 0, belongs to None"),
        ([(0, -1), (1,)], "arc end -1 listed at vertex 0, belongs to None"),
        ([(0, 0), (1,)], "arc end 0 appears twice"),
        ([(1,), (0,)], "arc end 1 listed at vertex 0, belongs to 1"),
        ([(0,), ()], r"arc ends missing from rotations: \[1\]"),
    ]
    for rotation, message in cases:
        with pytest.raises(DuplicateArcEnd, match=message):
            pg.build(2, [(0, 1)], rotation)


def test_foreign_darts_are_stale(simple_square):
    D = simple_square
    for dart in (-1, -2 * D.m, 2 * D.m, 2 * D.m + 5):
        with pytest.raises(StaleAngle):
            D.angle(dart)
        with pytest.raises(StaleAngle):
            D.completion_from_darts([(dart, 0)])
        with pytest.raises(StaleAngle):
            D.completion_from_darts([(0, dart)])
        for pair in ((dart, 0), (0, dart)):
            with pytest.raises(StaleAngle):
                pg.insert_arcs(D, [pair])


@pytest.mark.parametrize("mode", ["digon", "Oriented"])
def test_unknown_completion_mode_is_a_value_error(path3, mode):
    from orient_augment import solvers as sv

    with pytest.raises(ValueError, match=f"^unknown mode {mode!r}$"):
        pg.insert_arcs(path3, [], mode=mode)
    assert sv.verify_solution(path3, pg.EMPTY_COMPLETION, mode) == (
        False, f"ValueError: unknown mode {mode!r}")


def test_k4_faces():
    D = build_k4()
    assert D.f == 4
    assert sorted(len(w) for w in D.faces) == [3, 3, 3, 3]
    # angle census: one angle per arc end
    table = D.angle_table()
    assert sum(len(v) for v in table.values()) == 2 * D.m == 12


def test_angle_table_counts(triangle, single_arc):
    assert sum(len(v) for v in triangle.angle_table().values()) == 6
    assert sum(len(v) for v in single_arc.angle_table().values()) == 2


def test_insert_empty_is_identity(simple_square):
    assert pg.insert_arcs(simple_square, []) is simple_square


def test_insert_chord_splits_face(simple_square):
    D = simple_square
    f0 = D.faces[0]
    verts = [D.dart_vertex(d) for d in f0]
    i2, i0 = verts.index(2), verts.index(0)
    D2 = pg.insert_arcs(D, [(f0[i2], f0[i0])])
    assert D2.f == D.f + 1
    assert D2.euler_characteristic() == 2


def test_crossing_chords_rejected(simple_square):
    D = simple_square
    f0 = D.faces[0]
    verts = [D.dart_vertex(d) for d in f0]
    pairs = [
        (f0[verts.index(2)], f0[verts.index(0)]),
        (f0[verts.index(1)], f0[verts.index(3)]),
    ]
    with pytest.raises(CrossingArcs):
        pg.insert_arcs(D, pairs)


def test_insert_digon_rejected(simple_square):
    D = simple_square
    f0 = D.faces[0]
    verts = [D.dart_vertex(d) for d in f0]
    with pytest.raises(ModeViolation):
        pg.insert_arcs(D, [(f0[verts.index(1)], f0[verts.index(0)])])


def test_loop_and_parallel_in_multi_mode(single_arc):
    w = single_arc.faces[0]
    out = pg.insert_arcs(single_arc, [(w[0], w[0])], mode="multi")
    assert out.f == 2 and out.euler_characteristic() == 2
    out = pg.insert_arcs(single_arc, [(w[0], w[1]), (w[1], w[0])], mode="multi")
    assert out.f == 3 and sorted(len(x) for x in out.faces) == [2, 2, 2]


def test_chords_cross_is_interleaving():
    r = 8
    assert pg.chords_cross(r, 0, 4, 2, 6)
    assert not pg.chords_cross(r, 0, 4, 1, 3)
    assert not pg.chords_cross(r, 0, 4, 0, 2)  # shared angle nests
    assert not pg.chords_cross(r, 0, 4, 5, 7)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 9), st.integers(0, 10_000))
def test_boundary_lengths_sum_to_twice_arcs(n, seed):
    m = min(3 * n - 6, n + seed % n)
    D = pog_io.gen_random(n, m, seed)
    assert sum(len(w) for w in D.faces) == 2 * D.m
    assert D.euler_characteristic() == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 8), st.integers(0, 10_000), st.integers(0, 3))
def test_euler_preserved_by_insertion(n, seed, extra):
    import random

    D = pog_io.gen_random(n, n - 1, seed)
    rng = random.Random(seed)
    for _ in range(extra):
        f = rng.randrange(D.f)
        walk = D.faces[f]
        i, j = rng.randrange(len(walk)), rng.randrange(len(walk))
        u, v = D.dart_vertex(walk[i]), D.dart_vertex(walk[j])
        if i == j or u == v or D.underlying_adjacent(u, v):
            continue
        D = pg.insert_arcs(D, [(walk[i], walk[j])])
        assert D.euler_characteristic() == 2
