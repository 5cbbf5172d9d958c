import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orient_augment import enumerate_plane as ep
from orient_augment import face_analysis as fa
from orient_augment import plane_graph as pg
from orient_augment import pog_io
from orient_augment import strongconn as sc


def test_triangle_both_faces_strong(triangle):
    classes, report = fa.classify_all(triangle)
    assert all(c.kind == fa.CLASS_STRONG for c in classes.values())
    assert report.nonlocal_angles == 6


def test_alternating_octagon(alternating_octagon):
    D = alternating_octagon
    for f in range(D.f):
        dec = fa.decompose_face(D, f)
        assert len(dec.strong_intervals) == 8
        assert all(len(iv) == 1 for iv in dec.strong_intervals)
        assert len(dec.sources) == 4 and len(dec.sinks) == 4
        assert len(dec.dipaths) == 0  # terminals tile the whole boundary
        assert dec.classify().kind == fa.CLASS_ALTERNATING
    _classes, report = fa.classify_all(D)
    assert report.terminal_angles == 16
    assert report.nonlocal_angles == 0


def test_simple_square_structure(simple_square):
    dec = fa.decompose_face(simple_square, 0)
    assert dec.classify().kind == fa.CLASS_SIMPLE
    assert len(dec.dipaths) == 2
    sources, sinks = dec.sources, dec.sinks
    assert len(sources) == 1 and len(sinks) == 1


def test_strong_face_has_single_interval(triangle):
    ivs = fa.decompose_face(triangle, 0).strong_intervals
    assert len(ivs) == 1
    assert len(ivs[0]) == 3


def test_cut_vertex_intervals():
    # 3-cycle {0,1,2} plus pendant 2->3: the outer face revisits 2,
    # producing a source interval spanning several positions
    import orient_augment.plane_graph as pg

    D = pg.build(
        4,
        [(0, 1), (1, 2), (2, 0), (2, 3)],
        [(0, 5), (2, 1), (4, 6, 3), (7,)],
    )
    outer = next(f for f in range(D.f) if len(D.faces[f]) == 5)
    dec = fa.decompose_face(D, outer)
    assert dec.classify().kind == fa.CLASS_SIMPLE
    kinds = {t.kind for t in dec.terminals}
    assert kinds == {fa.LOCAL_SOURCE, fa.LOCAL_SINK}
    src = dec.sources[0]
    assert len(src.positions) == 4  # the cycle component occupies 4 positions


def test_alternation_property():
    for seed in range(30):
        D = pog_io.gen_random(7, 9, seed)
        for f in range(D.f):
            dec = fa.decompose_face(D, f)
            kinds = [t.kind for t in dec.terminals]
            assert len(dec.sources) == len(dec.sinks)
            for i, k in enumerate(kinds):
                assert k != kinds[(i + 1) % len(kinds)] or len(kinds) <= 1


def test_tiling_property():
    for seed in range(30):
        D = pog_io.gen_random(7, 10, seed + 100)
        for f in range(D.f):
            dec = fa.decompose_face(D, f)
            if dec.classify().kind == fa.CLASS_STRONG:
                continue
            covered = set()
            for iv in dec.intervals():
                assert not (covered & set(iv.positions))
                covered |= set(iv.positions)
            assert covered == set(range(len(D.faces[f])))


@settings(max_examples=50, deadline=None)
@given(st.integers(4, 9), st.integers(0, 100_000))
def test_census_identity(n, seed):
    m = (n - 1) + seed % (3 * n - 6 - (n - 1) + 1)
    D = pog_io.gen_random(n, m, seed)
    _classes, report = fa.classify_all(D)
    assert report.terminal_angles + report.nonlocal_angles == 2 * D.m


@settings(max_examples=50, deadline=None)
@given(st.integers(4, 9), st.integers(0, 100_000))
def test_dag_terminal_bound(n, seed):
    m = (n - 1) + seed % (3 * n - 6 - (n - 1) + 1)
    D = pog_io.gen_random(n, m, seed, acyclic=True)
    part = sc.scc(D)
    total = sum(
        fa.decompose_face(D, f).local_terminal_count - 2 for f in range(D.f)
    )
    assert total <= 2 * part.terminal_count - 4


def test_interval_dipath_reachability():
    # Spot-check: on dipaths, later positions are reachable from earlier
    for seed in range(20):
        D = pog_io.gen_random(7, 9, seed + 500)
        reach = sc.reach(D)
        for f in range(D.f):
            dec = fa.decompose_face(D, f)
            walk = D.faces[f]
            for P in dec.dipaths:
                verts = [D.dart_vertex(walk[p]) for p in P.positions]
                # orientation along the walk: the arc following the last
                # position points into the next terminal iff the dipath
                # runs clockwise from a source to a sink
                import orient_augment.plane_graph as pg

                forward = pg.dart_is_tail(walk[P.positions[-1]])
                if not forward:
                    verts = list(reversed(verts))
                for i in range(len(verts)):
                    for j in range(i + 1, len(verts)):
                        assert (reach[verts[i]] >> verts[j]) & 1


def _open_face_graphs():
    yield from ep.oriented_corpus(5)
    for n in range(9, 17):
        for seed in range(6):
            m = (n - 1) + (seed * 7919) % (2 * n - 5)
            yield pog_io.gen_random(n, m, seed=seed)
    data = pathlib.Path(__file__).parent / "data"
    for path in sorted(data.glob("planted_multi_*.pog")):
        yield pog_io.parse_pog(path.read_text())


def test_open_face_index_matches_full_scan():
    """The face lists read through the open-face index equal a scan of
    every face, and every face outside the index has no local terminal.
    The paper's filter (fewer than 8b local terminals on the alternating
    faces at budget b) never raises the Eswaran-Tarjan floor, which is
    why the solvers start from that floor alone."""
    graphs = 0
    for D in _open_face_graphs():
        graphs += 1
        indexed = (fa.alternating_faces(D), fa.simple_faces(D),
                   fa.alternating_terminal_sum(D))
        counts = [fa.decompose_face(D, f).local_terminal_count
                  for f in range(D.f)]
        alternating = [f for f, c in enumerate(counts) if c >= 4]
        simple = [f for f, c in enumerate(counts) if c == 2]
        assert indexed == (alternating, simple,
                           sum(counts[f] for f in alternating))
        assert not any(counts[f] for f in set(range(D.f))
                       - set(fa.open_faces(D)))
        if not sc.is_strong(D):
            assert indexed[2] // 8 + 1 <= sc.scc(D).solution_floor()
    assert graphs == 891 + 48 + 2


# -- reference: decompose_face as first written, from maximal cyclic runs of
# component ids and a second run scan over terminal flags ---------------


def _cyclic_runs(values):
    """Maximal (start, length) runs of equal values on a cyclic list."""
    r = len(values)
    if r == 0:
        return []
    if all(v == values[0] for v in values):
        return [(0, r)]
    # rotate so a run boundary sits at index 0
    s = 0
    while values[s - 1] == values[s]:
        s -= 1
    s %= r
    runs = []
    i = 0
    while i < r:
        j = i
        while j + 1 < r and values[(s + j + 1) % r] == values[(s + i) % r]:
            j += 1
        runs.append(((s + i) % r, j - i + 1))
        i = j + 1
    return runs


def decompose_face_reference(D, face):
    comp = sc.scc(D).component
    walk = D.faces[face]
    r = len(walk)
    runs = _cyclic_runs([comp[D.dart_vertex(d)] for d in walk])
    strong_intervals = []
    terminals = []
    for start, length in runs:
        positions = tuple((start + t) % r for t in range(length))
        strong_intervals.append(
            fa.Interval(face=face, kind=fa.STRONG_INTERVAL, positions=positions))
        if len(runs) == 1:
            continue
        pre_out = pg.dart_is_tail(pg.twin(walk[positions[0] - 1]))
        post_out = pg.dart_is_tail(walk[positions[-1]])
        if pre_out and post_out:
            terminals.append(
                fa.Interval(face=face, kind=fa.LOCAL_SOURCE, positions=positions))
        elif not pre_out and not post_out:
            terminals.append(
                fa.Interval(face=face, kind=fa.LOCAL_SINK, positions=positions))
    terminals.sort(key=lambda iv: iv.start)
    terminal_pos = {p for t in terminals for p in t.positions}
    dipaths = []
    if terminals:
        flags = [p in terminal_pos for p in range(r)]
        for start, length in _cyclic_runs([int(b) for b in flags]):
            if flags[start]:
                continue
            positions = tuple((start + t) % r for t in range(length))
            dipaths.append(fa.Interval(
                face=face, kind=fa.INTERVAL_DIPATH, positions=positions))
        dipaths.sort(key=lambda iv: iv.start)
    return fa.FaceDecomposition(
        face=face,
        strong_intervals=tuple(sorted(strong_intervals, key=lambda iv: iv.start)),
        terminals=tuple(terminals),
        dipaths=tuple(dipaths),
    )


def test_decompose_face_matches_run_scan_reference():
    """Equal decompositions on every face, open or not, including the
    faces of length 1 and 2 of condensed graphs."""
    graphs = list(_open_face_graphs())
    graphs += [sc.condense(D).condensed for D in graphs[891:]]
    faces = wrapped = short = 0
    for D in graphs:
        for f in range(D.f):
            dec = fa.decompose_face(D, f)
            assert dec == decompose_face_reference(D, f)
            faces += 1
            short += len(D.faces[f]) <= 2
            wrapped += any(iv.positions != tuple(sorted(iv.positions))
                           for iv in dec.strong_intervals + dec.dipaths)
    assert (faces, short, wrapped) == (4220, 210, 391)
