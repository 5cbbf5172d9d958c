import gc
import math
import pathlib
import tracemalloc
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orient_augment import completion_enum as ce
from orient_augment import enumerate_plane as ep
from orient_augment import face_analysis as fa
from orient_augment import plane_graph as pg
from orient_augment import pog_io
from orient_augment import solvers as sv
from orient_augment import strongconn as sc
from orient_augment.errors import (
    CrossingArcs, DuplicateArcEnd, ModeViolation, NonSphericalEmbedding,
    ParseError, StaleAngle,
)

DATA = pathlib.Path(__file__).parent / "data"


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
        ([(0,), ()], "arc ends missing from rotations: [1]"),
        ([(0,)], "rotation must list every vertex"),
    ]
    for rotation, message in cases:
        with pytest.raises(DuplicateArcEnd) as err:
            pg.build(2, [(0, 1)], rotation)
        assert str(err.value) == message
    with pytest.raises(DuplicateArcEnd) as err:
        pg.build(2, [(0, 1), (0, 2)], [(0, 2), (1,)])
    assert str(err.value) == "arc (0,2) references missing vertex"


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
    # angles are built on demand; equal calls give equal values
    for dart in range(2 * D.m):
        assert D.angle(dart) == D.angle(dart)
    pairs = [(walk[0], walk[2]) for walk in D.faces]
    assert (D.completion_from_darts(pairs).key()
            == D.completion_from_darts(pairs).key())


def test_build_keeps_pair_and_ring_tuples():
    arcs = ((0, 1), (1, 2), (2, 0))
    rotation = ((0, 5), (2, 1), (4, 3))
    D = pg.build(3, arcs, rotation)
    assert all(D.arcs[i] is arcs[i] for i in range(3))
    assert all(D.rotation[v] is rotation[v] for v in range(3))
    L = pg.build(3, [list(uv) for uv in arcs], [list(r) for r in rotation])
    assert (L.arcs, L.rotation, L.faces) == (D.arcs, D.rotation, D.faces)


def test_orientations_of_one_map_share_tuples():
    def map_key(D):  # the underlying map: edges as (min, max), their rings
        flip = [u > v for u, v in D.arcs]
        return (D.n, tuple(tuple(sorted(uv)) for uv in D.arcs),
                tuple(tuple(d ^ flip[d >> 1] for d in r) for r in D.rotation))

    groups: dict = {}
    for D in ep.oriented_corpus(4):
        groups.setdefault(map_key(D), []).append(D)
    shared = [0, 0]  # equal arc pairs, equal rings
    for graphs in groups.values():
        for D, E in zip(graphs, graphs[1:]):
            for i, (xs, ys) in enumerate([(D.arcs, E.arcs),
                                          (D.rotation, E.rotation)]):
                for a, b in zip(xs, ys):
                    if a == b:
                        assert a is b
                        shared[i] += 1
    assert min(shared) > 0


def test_corpus5_footprint():
    """Retained bytes per graph of the n <= 5 corpus (Python 3.11): 1,880
    with per-graph pair and ring tuples and an angle cache, 1,212 with
    them shared and no cache, about 1,133 with no empty store of derived
    tables."""
    ep.oriented_corpus(3)
    gc.collect()
    tracemalloc.start()
    try:
        corpus = ep.oriented_corpus(5)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / len(corpus) <= 1600


def _solve_every_way(D):
    # the Monte-Carlo mode alone reads the simple faces' candidate lists
    sv.solve_oriented(D, 3)
    sv.solve_oriented(D, 3, method="montecarlo", trials=1, seed=0)
    sv.solve_directed(D, 3)


def _derived_calls(D):
    """Every derived table of a solved graph, as (name, thunk) pairs."""
    calls = [("adjacency", D.adjacency), ("scc", lambda: sc.scc(D)),
             ("open_faces", lambda: fa.open_faces(D)),
             ("alternating_faces", lambda: fa.alternating_faces(D)),
             ("simple_faces", lambda: fa.simple_faces(D))]
    calls += [(f"decompose_face {f}", lambda f=f: fa.decompose_face(D, f))
              for f in range(D.f)]
    calls += [(f"simple_face_sets {f}", lambda f=f: ce.simple_face_sets(D, f))
              for f in fa.simple_faces(D)]
    for mode in (pg.MODE_ORIENTED, pg.MODE_DIRECTED):
        calls.append((f"legal_arcs {mode}",
                      lambda m=mode: ce.legal_arcs(D, m)))
    return calls


def test_fresh_graphs_have_no_derived_tables(simple_square):
    text = pog_io.write_pog(pog_io.gen_random(9, 14, 3))
    for D in (simple_square, pog_io.parse_pog(text),
              *ep.oriented_corpus(4)[:50]):
        assert D._derived is None
    assert pg.PlaneDigraph.__slots__.count("_derived") == 1
    assert not [s for s in pg.PlaneDigraph.__slots__ if "cache" in s]


def test_derived_tables_are_kept_after_solving():
    for seed in range(1000, 1006):
        D = pog_io.gen_random(8, 11, seed)
        _solve_every_way(D)
        stored = dict(D._derived)
        # the solves stored the per-graph tables: asking again adds none
        for name, call in _derived_calls(D)[:3]:
            assert call() is call(), name
        assert len(D._derived) == len(stored)
        for name, call in _derived_calls(D):
            first = call()
            assert call() is first, name
        assert all(D._derived[key] is table for key, table in stored.items())


def test_exact_solves_store_no_face_decomposition():
    # both exact solvers read the legal-arc table, whose directed sites
    # come from one scan of each open face's component ids
    for seed in range(1000, 1012):
        D = pog_io.gen_random(8, 9 + seed % 6, seed)
        sv.solve_oriented(D, 3)
        sv.solve_directed(D, 3)
        keys = {key[0] if isinstance(key, tuple) else key for key in D._derived}
        # none of these graphs is strong, so both solves built the table
        assert (ce.legal_arcs.__wrapped__, pg.MODE_ORIENTED) in D._derived
        assert (ce.legal_arcs.__wrapped__, pg.MODE_DIRECTED) in D._derived
        assert fa.decompose_face.__wrapped__ not in keys


def test_graphs_never_share_derived_tables():
    text = pog_io.write_pog(pog_io.gen_random(8, 11, 1003))
    D, E = pog_io.parse_pog(text), pog_io.parse_pog(text)
    _solve_every_way(D)
    assert E._derived is None
    _solve_every_way(E)
    assert D._derived is not E._derived
    for (name, call), (_, other) in zip(_derived_calls(D), _derived_calls(E)):
        a, b = call(), other()
        assert a == b and a is not b, name


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


def test_non_spherical_rotation_systems_are_rejected():
    # one vertex, two loops interleaved in its rotation: a torus bouquet
    with pytest.raises(NonSphericalEmbedding) as err:
        pg.build(1, [(0, 0), (0, 0)], [(0, 2, 1, 3)], mode="multi")
    assert str(err.value) == "Euler characteristic 0 != 2"
    # K4 with the rotation at one vertex reversed
    rotation = list(build_k4().rotation)
    rotation[3] = rotation[3][::-1]
    with pytest.raises(NonSphericalEmbedding) as err:
        pg.build(4, build_k4().arcs, rotation)
    assert str(err.value) == "Euler characteristic 0 != 2"


def test_disconnected_graph_skips_the_euler_check():
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    D = pg.build(6, arcs, [(0, 5), (2, 1), (4, 3), (6, 11), (8, 7), (10, 9)])
    assert D.connected is False
    assert D.f == 4 and D.euler_characteristic() == 4


# -- construction and parsing with ordered check loops, kept as references --


def _validate_mode_reference(arcs, mode):
    if mode == pg.MODE_MULTI:
        return
    seen_ordered = set()
    seen_unordered = set()
    for u, v in arcs:
        if u == v:
            raise ModeViolation(f"loop at vertex {u} is illegal in mode {mode}")
        if (u, v) in seen_ordered:
            raise ModeViolation(f"parallel arcs {u}->{v} in mode {mode}")
        seen_ordered.add((u, v))
        key = (u, v) if u <= v else (v, u)
        if mode == pg.MODE_ORIENTED:
            if key in seen_unordered:
                raise ModeViolation(f"digon between {u} and {v} in oriented mode")
            seen_unordered.add(key)


def _trace_faces_reference(arcs, rotation):
    rot_next = [0] * (2 * len(arcs))
    for ring in rotation:
        for d, e in zip(ring, ring[1:] + ring[:1]):
            rot_next[d] = e
    dart_face = [-1] * len(rot_next)
    dart_pos = [0] * len(rot_next)
    faces = []
    for start in range(len(rot_next)):
        if dart_face[start] >= 0:
            continue
        walk = []
        d = start
        while True:
            dart_face[d] = len(faces)
            dart_pos[d] = len(walk)
            walk.append(d)
            d = rot_next[d ^ 1]
            if d == start:
                break
        faces.append(tuple(walk))
    return tuple(faces), tuple(dart_face), tuple(dart_pos), tuple(rot_next)


def _underlying_connected_reference(n, arcs):
    if n <= 1:
        return True
    adj = [[] for _ in range(n)]
    for u, v in arcs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def build_reference(n, arcs, rotation, mode=pg.MODE_ORIENTED, outer_face=0):
    """``build`` as it was before the one-pass checks: each check a loop of
    its own, in order."""
    if mode not in pg.MODES:
        raise ValueError(f"unknown mode {mode!r}")
    arcs = tuple((int(u), int(v)) for u, v in arcs)
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise DuplicateArcEnd(f"arc ({u},{v}) references missing vertex")
    _validate_mode_reference(arcs, mode)
    expected_vertex = [v for uv in arcs for v in uv]
    nd = len(expected_vertex)
    seen = bytearray(nd)
    rotation = tuple(tuple(ring) for ring in rotation)
    if len(rotation) != n:
        raise DuplicateArcEnd("rotation must list every vertex")
    for v, ring in enumerate(rotation):
        for d in ring:
            if not 0 <= d < nd or seen[d] or expected_vertex[d] != v:
                owner = expected_vertex[d] if 0 <= d < nd else None
                if owner is not None and seen[d]:
                    raise DuplicateArcEnd(f"arc end {d} appears twice")
                raise DuplicateArcEnd(
                    f"arc end {d} listed at vertex {v}, belongs to {owner}")
            seen[d] = 1
    if 0 in seen:
        missing = [d for d in range(nd) if not seen[d]]
        raise DuplicateArcEnd(f"arc ends missing from rotations: {missing}")
    faces, dart_face, dart_pos, rot_next = _trace_faces_reference(
        arcs, rotation)
    connected = _underlying_connected_reference(n, arcs)
    if connected and arcs:
        if n - len(arcs) + len(faces) != 2:
            raise NonSphericalEmbedding(
                f"Euler characteristic {n - len(arcs) + len(faces)} != 2")
    if not faces:
        faces = ()
        outer = 0
    else:
        outer = outer_face if 0 <= outer_face < len(faces) else 0
    return pg.PlaneDigraph(
        n=n, arcs=arcs, rotation=rotation, mode=mode, faces=faces,
        connected=connected, outer_face=outer, dart_face=dart_face,
        dart_pos=dart_pos, rot_next=rot_next)


def parse_reference(text):
    """``parse_pog`` as it was before the one-pass decode, on
    ``build_reference``; errors that build raises are located by
    ``pog_io._where``."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "pog":
        raise ParseError("line 1: expected 'pog <mode> <n> <m>'")
    mode = head[1]
    if mode not in pg.MODES:
        raise ParseError(f"line 1: unknown mode {mode!r}")
    try:
        n, m = int(head[2]), int(head[3])
    except ValueError as exc:
        raise ParseError(f"line 1: bad counts: {exc}") from exc
    if n < 0 or m < 0:
        raise ParseError(f"line 1: negative count in {lines[0]!r}")
    if n + m >= len(lines):
        raise ParseError(f"line 1: {n} vertices and {m} arcs need {n + m} "
                         f"lines, but {len(lines) - 1} follow")
    arcs: list[Optional[tuple[int, int]]] = [None] * m
    rotation: list[Optional[tuple[int, ...]]] = [None] * n
    seen_ends: set[int] = set()
    for ln, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts or raw[0] == "#":
            continue
        if parts[0] == "a":
            if len(parts) != 4:
                raise ParseError(f"line {ln}: expected 'a <id> <tail> <head>'")
            try:
                a, u, v = map(int, parts[1:])
            except ValueError as exc:
                raise ParseError(f"line {ln}: non-integer id: {exc}") from exc
            if not 0 <= a < m or arcs[a] is not None:
                raise ParseError(f"line {ln}: bad or repeated arc id {a}")
            if not (0 <= u < n and 0 <= v < n):
                col, x = (3, u) if not 0 <= u < n else (4, v)
                raise ParseError(
                    f"line {ln}, field {col}: vertex {x} not in 0..{n - 1}")
            arcs[a] = (u, v)
        elif parts[0] == "r":
            try:
                v = int(parts[1])
            except (IndexError, ValueError) as exc:
                raise ParseError(f"line {ln}: expected 'r <v> <ends>'") from exc
            if not 0 <= v < n or rotation[v] is not None:
                raise ParseError(f"line {ln}: bad or repeated vertex {v}")
            ring = []
            for col, tok in enumerate(parts[2:], start=3):
                if tok[-1] not in "+-":
                    raise ParseError(f"line {ln}: bad end token {tok!r}")
                try:
                    a = int(tok[:-1])
                except ValueError as exc:
                    raise ParseError(f"line {ln}: bad end token {tok!r}") from exc
                if not 0 <= a < m:
                    raise ParseError(
                        f"line {ln}, field {col}: arc {a} not in 0..{m - 1}")
                d = 2 * a + (0 if tok[-1] == "+" else 1)
                if d in seen_ends:
                    raise ParseError(
                        f"line {ln}, field {col}: arc end {tok} repeated")
                seen_ends.add(d)
                ring.append(d)
            rotation[v] = tuple(ring)
        else:
            raise ParseError(f"line {ln}: unknown record {parts[0]!r}")
    if None in arcs:
        raise ParseError(f"line 1, field 4: missing arc lines for ids "
                         f"{[a for a, uv in enumerate(arcs) if uv is None]}")
    rotation = [r if r is not None else () for r in rotation]
    try:
        return build_reference(n, arcs, rotation, mode=mode)
    except (DuplicateArcEnd, ModeViolation, NonSphericalEmbedding) as exc:
        where = pog_io._where(lines, arcs, rotation, mode, exc)
        raise type(exc)(f"{where}: {exc}") from None


FIELDS = ("n", "arcs", "rotation", "faces", "_dart_face", "_dart_pos",
          "_rot_next", "connected", "outer_face", "mode")


def outcome(make, *args, **kwargs):
    """Every stored field of the graph ``make`` returns, or the type and
    message of what it raised."""
    try:
        D = make(*args, **kwargs)
    except Exception as exc:  # compared, type and message, by the caller
        return type(exc), str(exc)
    return tuple(getattr(D, name) for name in FIELDS)


def reference_hosts():
    """The n <= 5 corpus, 48 random graphs at n = 9..16 (a third
    directed), both planted_multi fixtures, and the condensations of the
    last 100."""
    graphs = list(ep.oriented_corpus(5))
    for n in range(9, 17):
        for seed in range(6):
            m = (n - 1) + (seed * 7919) % (2 * n - 5)
            mode = "directed" if seed % 3 == 0 else "oriented"
            graphs.append(pog_io.gen_random(n, m, seed=seed, mode=mode))
    graphs += [pog_io.parse_pog(path.read_text())
               for path in sorted(DATA.glob("planted_multi_*.pog"))]
    return graphs + [sc.condense(D).condensed for D in graphs[-100:]]


def test_build_and_parse_match_reference():
    hosts = reference_hosts()
    assert len(hosts) > 1000
    assert sum(D.mode == "multi" for D in hosts) >= 100
    for i, D in enumerate(hosts):
        args = (D.n, D.arcs, D.rotation)
        for outer in (0, i % 5, D.f + 1):
            got = outcome(pg.build, *args, mode=D.mode, outer_face=outer)
            assert got == outcome(build_reference, *args, mode=D.mode,
                                  outer_face=outer)
            assert isinstance(got[0], int)
        text = pog_io.write_pog(D)
        assert outcome(pog_io.parse_pog, text) == outcome(parse_reference,
                                                          text)


MUTATION_HOSTS = [
    pog_io.gen_random(n, m, seed=seed, mode=mode)
    for n, m, seed, mode in [(3, 3, 1, "oriented"), (5, 7, 2, "directed"),
                             (6, 9, 3, "oriented"), (7, 12, 4, "multi"),
                             (8, 10, 5, "directed"), (4, 3, 6, "oriented")]
] + [build_k4()]


def _mutate(data, arcs, rotation, n):
    """One random edit of an arc list and its rings: an end dropped,
    duplicated, swapped with another, given the other sign, moved to another
    ring; a ring reversed; an arc's tail or head moved to another vertex."""
    ends = [(v, i) for v, ring in enumerate(rotation) for i in range(len(ring))]
    op = data.draw(st.sampled_from(
        ["drop", "duplicate", "swap", "flip", "move", "reverse", "retarget"]))
    if op == "retarget" or not ends:
        a = data.draw(st.integers(0, len(arcs) - 1))
        arcs[a] = list(arcs[a])
        arcs[a][data.draw(st.integers(0, 1))] = data.draw(st.integers(0, n - 1))
        arcs[a] = tuple(arcs[a])
        return
    v, i = data.draw(st.sampled_from(ends))
    w = data.draw(st.integers(0, len(rotation) - 1))
    if op == "drop":
        del rotation[v][i]
    elif op == "duplicate":
        rotation[w].insert(data.draw(st.integers(0, len(rotation[w]))),
                           rotation[v][i])
    elif op == "swap":
        w, j = data.draw(st.sampled_from(ends))
        rotation[v][i], rotation[w][j] = rotation[w][j], rotation[v][i]
    elif op == "flip":
        rotation[v][i] ^= 1
    elif op == "move":
        d = rotation[v].pop(i)
        rotation[w].insert(data.draw(st.integers(0, len(rotation[w]))), d)
    else:
        rotation[v].reverse()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_pog_texts_match_reference(data):
    D = data.draw(st.sampled_from(MUTATION_HOSTS))
    arcs = list(D.arcs)
    rotation = [list(ring) for ring in D.rotation]
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, arcs, rotation, D.n)
    rings = [[f"{d >> 1}{'-+'[d & 1 == 0]}" for d in ring] for ring in rotation]
    if data.draw(st.booleans()):  # a token the decoder must reject
        v = data.draw(st.integers(0, D.n - 1))
        rings[v].insert(data.draw(st.integers(0, len(rings[v]))),
                        data.draw(st.sampled_from(
                            ["x+", "1", "+", "-1-", f"{D.m}+", "0+0+",
                             "0*", "\u0663-"])))
    lines = [f"pog {D.mode} {D.n} {D.m}"]
    lines += [f"a {a} {u} {v}" for a, (u, v) in enumerate(arcs)]
    lines += [" ".join(["r", str(v)] + ring) for v, ring in enumerate(rings)]
    order = data.draw(st.permutations(range(1, len(lines))))
    text = "\n".join([lines[0]] + [lines[i] for i in order]) + "\n"
    assert outcome(pog_io.parse_pog, text) == outcome(parse_reference, text)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_rotation_systems_match_reference(data):
    """As above on ``build`` itself, with the edits a parser never passes
    on: ends and vertices out of range, a ring too few or too many."""
    D = data.draw(st.sampled_from(MUTATION_HOSTS))
    arcs = list(D.arcs)
    rotation = [list(ring) for ring in D.rotation]
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(
            ["edit", "edit", "edit", "end", "end", "vertex", "rings"]))
        if op == "end":
            v = data.draw(st.integers(0, len(rotation) - 1))
            rotation[v].append(data.draw(st.sampled_from(
                [-1, -2, 2 * D.m, 2 * D.m + 3])))
        elif op == "vertex":
            a = data.draw(st.integers(0, D.m - 1))
            arcs[a] = (arcs[a][0], data.draw(st.sampled_from([-1, D.n])))
        elif op == "rings":
            rotation = rotation[:-1] if data.draw(st.booleans()) else (
                rotation + [[]])
        else:
            _mutate(data, arcs, rotation, D.n)
    for mode in pg.MODES:
        assert outcome(pg.build, D.n, arcs, rotation, mode=mode) == outcome(
            build_reference, D.n, arcs, rotation, mode=mode)
