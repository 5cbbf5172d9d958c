import pytest

from orient_augment import face_analysis as fa
from orient_augment import plane_graph as pg
from orient_augment import pog_io
from orient_augment import supports as sp


def positions_to_verts(D, face, members):
    walk = D.faces[face]
    return {
        frozenset(D.dart_vertex(walk[p]) for p in b) for b in members
    }


def test_common_neighbour_triangle(triangle):
    assert sp.common_neighbour(triangle, 0, 0, 1) is not None


def test_common_neighbour_square_none(simple_square):
    walk = simple_square.faces[0]
    verts = [simple_square.dart_vertex(d) for d in walk]
    i0 = verts.index(0)
    assert sp.common_neighbour(simple_square, 0, i0, (i0 + 1) % 4) is None


def test_common_neighbour_via_external_chord():
    # pentagon boundary 0..4 with a chord 0-2 drawn outside (vertex 1 is
    # pulled inward): inside the pentagon face, consecutive vertices 0,1
    # share the neighbour 2 even though the chord is not embedded there
    from orient_augment.hardness import _Assembly

    asm = _Assembly()
    coords = [(-6, 8), (0, 4), (6, 8), (6, -8), (-6, -8)]
    for x, y in coords:
        asm.vertex(float(x), float(y))
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]:
        asm.arc(u, v)
    D, _vid = asm.build()
    inner = next(
        f for f in range(D.f)
        if len(D.faces[f]) == 5 and len(set(D.face_vertices(f))) == 5
    )
    walk = D.faces[inner]
    verts = [D.dart_vertex(d) for d in walk]
    i0 = verts.index(0)
    i1 = verts.index(1)
    u = sp.common_neighbour(D, inner, i0, i1)
    assert u == 2


def test_level_one_family_chordless(simple_square):
    dec = fa.decompose_face(simple_square, 0)
    dipath = dec.dipaths[0]
    fam = sp.left_supports(simple_square, dipath, 1)
    # single-angle interval: only the first angle
    assert len(fam) == 1

    # a longer chordless interval gives exactly the two leading angles
    P = pg.build(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [(0,), (1, 2), (3, 4), (5, 6), (7,)])
    f = 0
    dec = fa.decompose_face(P, f)
    dipath = max(dec.dipaths, key=len)
    fam = sp.left_supports(P, dipath, 1)
    walk = P.faces[f]
    got = positions_to_verts(P, f, fam)
    first_two = {
        frozenset([P.dart_vertex(walk[dipath.positions[0]])]),
        frozenset([P.dart_vertex(walk[dipath.positions[1]])]),
    }
    assert got == first_two


def test_family_cardinality_bound():
    violations = 0
    for seed in range(60):
        D = pog_io.gen_random(8, 11, seed)
        for f in range(D.f):
            dec = fa.decompose_face(D, f)
            for iv in dec.intervals():
                for q in range(1, 7):
                    for fam in (
                        sp.left_supports(D, iv, q),
                        sp.right_supports(D, iv, q),
                    ):
                        if len(fam) > 3 * 2 ** (q - 1):
                            violations += 1
    assert violations == 0


def test_construction_cost_ceiling(monkeypatch):
    # the cost is counted in vertex reads: a face's vertex mask, a common
    # neighbour and each jump step read dart_vertex once per vertex
    reads = 0
    dart_vertex = pg.PlaneDigraph.dart_vertex

    def counted(self, dart):
        nonlocal reads
        reads += 1
        return dart_vertex(self, dart)

    monkeypatch.setattr(pg.PlaneDigraph, "dart_vertex", counted)
    D = pog_io.gen_random(8, 12, 7)
    delta = max(
        sum(1 for d in D.rotation[v]) for v in range(D.n)
    )
    for f in range(D.f):
        dec = fa.decompose_face(D, f)
        for iv in dec.intervals():
            for q in range(1, 7):
                # every support cache goes, so each call builds levels 1..q
                D._derived = None
                reads = 0
                sp.left_supports(D, iv, q)
                budget = 64 * (2 ** q) * max(len(iv), 1) * (delta + 1)
                assert reads <= budget
                if len(iv) >= 2:
                    assert reads > 0


# -- reference: the construction as first written, rebuilt from level 1 for
# every q, on a sorted scan of the face's vertices with one adjacency
# lookup per pair --------------------------------------------------------


def common_neighbour_reference(D, face, pos_a, pos_b):
    walk = D.faces[face]
    va = D.dart_vertex(walk[pos_a])
    vb = D.dart_vertex(walk[pos_b])
    found = None
    for u in sorted(set(D.dart_vertex(d) for d in walk)):
        if u == va or u == vb:
            continue
        if D.underlying_adjacent(u, va) and D.underlying_adjacent(u, vb):
            assert found is None
            found = u
    return found


def family_reference(D, face, positions, q):
    walk = D.faces[face]
    vert = [D.dart_vertex(walk[p]) for p in positions]
    r = len(positions)
    if r == 0 or q < 1:
        return ()

    def adjacent(u, v):
        return u != v and D.underlying_adjacent(u, v)

    def leftmost_non_neighbour(u, start):
        for h in range(start, r):
            if not adjacent(u, vert[h]):
                return h
        return None

    level = [(0,)]
    if r >= 2:
        level.append((1,))
        u = common_neighbour_reference(D, face, positions[0], positions[1])
        if u is not None:
            h = leftmost_non_neighbour(u, 0)
            if h is not None and (h,) not in level:
                level.append((h,))
    for _ in range(q - 1):
        nxt, seen = [], set()
        for b in level:
            i = b[-1]
            if i + 1 < r:
                cand = b + (i + 1,)
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
                u = common_neighbour_reference(
                    D, face, positions[i], positions[i + 1]
                )
                if u is not None:
                    h = leftmost_non_neighbour(u, i + 1)
                    if h is not None:
                        cand = b + (h,)
                        if cand not in seen and h not in b:
                            seen.add(cand)
                            nxt.append(cand)
        level = nxt
    return tuple(frozenset(positions[i] for i in b) for b in level)


def external_chord_pentagon():
    """Pentagon 0..4 with the chord 0-2 drawn outside it, as in
    ``test_common_neighbour_via_external_chord``; returns the graph
    and its inner pentagon face."""
    from orient_augment.hardness import _Assembly

    asm = _Assembly()
    for x, y in [(-6, 8), (0, 4), (6, 8), (6, -8), (-6, -8)]:
        asm.vertex(float(x), float(y))
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]:
        asm.arc(u, v)
    D, _vid = asm.build()
    inner = next(
        f for f in range(D.f)
        if len(D.faces[f]) == 5 and len(set(D.face_vertices(f))) == 5
    )
    return D, inner


def test_families_match_reference():
    from orient_augment import enumerate_plane as ep

    graphs = list(ep.oriented_corpus(5)[::5])
    graphs += [
        pog_io.gen_random(n, m, seed)
        for n in range(6, 13)
        for m in (n - 1, 2 * n - 3, 3 * n - 6)
        for seed in range(3)
    ]
    graphs.append(external_chord_pentagon()[0])
    compared = 0
    for g, D in enumerate(graphs):
        # rising q extends the cached levels; falling q grows them at once
        qs = range(1, 7) if g % 2 else range(6, 0, -1)
        for f in range(D.f):
            for iv in fa.decompose_face(D, f).intervals():
                for a, b in zip(iv.positions, iv.positions[1:]):
                    assert sp.common_neighbour(D, f, a, b) == (
                        common_neighbour_reference(D, f, a, b)
                    )
                backwards = iv.positions[::-1]
                for q in qs:
                    lefts = family_reference(D, f, iv.positions, q)
                    rights = family_reference(D, f, backwards, q)
                    assert sp.left_supports(D, iv, q) == lefts
                    assert sp.right_supports(D, iv, q) == rights
                    union = set()
                    for qq in range(1, q + 1):
                        for b in family_reference(D, f, iv.positions, qq):
                            union |= b
                        for b in family_reference(D, f, backwards, qq):
                            union |= b
                    assert sp.support_pool(D, iv, q) == union
                    compared += 1
    assert compared > 1000


def long_path(n):
    """Directed path 0 -> 1 -> ... -> n - 1: one chordless face whose two
    interval dipaths hold n - 2 angles each."""
    rotation = [(0,)] + [(2 * i - 1, 2 * i) for i in range(1, n - 1)]
    return pg.build(n, [(i, i + 1) for i in range(n - 1)],
                    rotation + [(2 * n - 3,)])


def test_supported_on_interval_matches_family_product():
    """Every endpoint set of every size on every interval gets the answer
    of the level-q lefts x rights loop over the reference families.  The
    long paths hold intervals of 6..10 angles, where sets of 2q < r angles
    can be rejected."""
    from itertools import combinations
    from orient_augment import enumerate_plane as ep

    graphs = list(ep.oriented_corpus(5))
    graphs += [
        pog_io.gen_random(n, m, seed)
        for n in range(6, 13)
        for m in (n - 1, 2 * n - 3, 3 * n - 6)
        for seed in range(3)
    ]
    graphs.append(external_chord_pentagon()[0])
    graphs += [long_path(n) for n in range(8, 13)]
    checked = rejected = 0
    for D in graphs:
        for f in range(D.f):
            for iv in fa.decompose_face(D, f).intervals():
                backwards = iv.positions[::-1]
                for q in range(1, len(iv) + 1):
                    lefts = family_reference(D, f, iv.positions, q)
                    rights = family_reference(D, f, backwards, q)
                    for w in combinations(iv.positions, q):
                        want = any(set(w) <= bl | br
                                   for bl in lefts for br in rights)
                        # repeated endpoints count once
                        for ends in (list(w), list(w[::-1] + w[:1])):
                            got = sp.is_supported_on_interval(D, iv, ends)
                            assert got == want, (f, iv, w)
                        checked += 1
                        rejected += not want
    assert checked > 15000 and rejected > 500


def test_stack_angles_land_in_left_family():
    # exhaustively left-shift endpoints of brute minima; the resulting
    # left-stack angles on each interval must form a left support member
    from orient_augment import reconfigure as rc
    from orient_augment import solvers as sv
    from orient_augment import enumerate_plane as ep

    tested = 0
    for D in ep.oriented_corpus(5)[::11]:
        rep = sv.brute_solve(D, 3)
        if not rep.verdict or rep.optimum == 0:
            continue
        X = rc.Multicompletion.from_completion(D, rep.witness)
        for face in range(D.f):
            dec = fa.decompose_face(D, face)
            for iv in dec.intervals():
                while True:
                    moved_any = False
                    for e in X.endpoints_on(face, iv.positions):
                        out, moved = rc.shift(X, e, rc.LEFT)
                        if moved:
                            X = out
                            moved_any = True
                            break
                    if not moved_any:
                        break
                ends = X.endpoints_on(face, iv.positions)
                if not ends:
                    continue
                angles = frozenset(X.endpoint_position(e) for e in ends)
                fam = sp.left_supports(D, iv, len(angles))
                assert angles in set(fam)
                tested += 1
    assert tested > 5
