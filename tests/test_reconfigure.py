import random

import pytest

from orient_augment import completion_enum as ce
from orient_augment import enumerate_plane as ep
from orient_augment import face_analysis as fa
from orient_augment import plane_graph as pg
from orient_augment import pog_io
from orient_augment import reconfigure as rc
from orient_augment import solvers as sv
from orient_augment.errors import GatherBlocked, NotASolution


def path_graph(n):
    arcs = [(i, i + 1) for i in range(n - 1)]
    rotation = [(0,)]
    for v in range(1, n - 1):
        rotation.append((2 * v, 2 * (v - 1) + 1))
    rotation.append((2 * (n - 2) + 1,))
    return pg.build(n, arcs, rotation)


def test_shift_lands_leftmost_on_chordless_dipath():
    D = path_graph(6)
    # solution: single arc from the sink (5) back to the source (0)
    walk = D.faces[0]
    verts = [D.dart_vertex(d) for d in walk]
    comp = D.completion_from_darts([(walk[verts.index(5)], walk[verts.index(0)])])
    ok, _ = sv.verify_solution(D, comp)
    assert ok
    X = rc.Multicompletion.from_completion(D, comp)
    # move the head endpoint to a mid-dipath angle, then left-shift it
    dec = fa.decompose_face(D, 0)
    dipath = max(dec.dipaths, key=len)
    mid = dipath.positions[len(dipath) // 2]
    X.move_endpoint((0, "head"), mid)
    out, moved = rc.shift(X, (0, "head"), rc.LEFT)
    assert moved
    assert out.endpoint_position((0, "head")) == dipath.positions[0]


def test_shift_blocked_by_adjacency(simple_square):
    # head endpoint of (2 -> 0) sits at source angle; the only left move
    # inside the terminal interval does not exist
    D = simple_square
    walk = D.faces[0]
    verts = [D.dart_vertex(d) for d in walk]
    comp = D.completion_from_darts([(walk[verts.index(2)], walk[verts.index(0)])])
    X = rc.Multicompletion.from_completion(D, comp)
    out, moved = rc.shift(X, (0, "head"), rc.LEFT)
    assert not moved and out is X


def test_shift_order_preserved():
    # two endpoints on one dipath: the right one cannot jump over the left
    D = path_graph(7)
    walk = D.faces[0]
    verts = [D.dart_vertex(d) for d in walk]
    comp = D.completion_from_darts(
        [
            (walk[verts.index(6)], walk[verts.index(1)]),
            (walk[verts.index(2)], walk[verts.index(0)]),
        ]
    )
    X = rc.Multicompletion.from_completion(D, comp)
    dec = fa.decompose_face(D, 0)
    dipath = next(iv for iv in dec.dipaths if X.endpoints_on(0, iv.positions))
    ends = X.endpoints_on(0, dipath.positions)
    order_before = list(ends)
    out, moved = rc.shift(X, ends[-1], rc.LEFT)
    if moved:
        assert out.endpoints_on(0, dipath.positions) == order_before


def test_gather_moves_everything_without_blockers():
    D = path_graph(6)
    walk = D.faces[0]
    verts = [D.dart_vertex(d) for d in walk]
    comp = D.completion_from_darts(
        [
            (walk[verts.index(5)], walk[verts.index(1)]),
            (walk[verts.index(5)], walk[verts.index(2)]),
        ]
    )
    X = rc.Multicompletion.from_completion(D, comp)
    dec = fa.decompose_face(D, 0)
    dipath = next(
        iv
        for iv in dec.dipaths
        if len(X.endpoints_on(0, iv.positions)) == 2
    )
    p1 = X.endpoint_position((0, "head"))
    p2 = X.endpoint_position((1, "head"))
    lo, hi = sorted([dipath.positions.index(p1), dipath.positions.index(p2)])
    out = rc.gather(X, 0, dipath, dipath.positions[lo], dipath.positions[hi])
    spots = {out.endpoint_position((0, "head")), out.endpoint_position((1, "head"))}
    assert len(spots) == 1


def test_gather_vacuous_without_endpoints():
    D = path_graph(5)
    X = rc.Multicompletion(D, [])
    dec = fa.decompose_face(D, 0)
    dipath = dec.dipaths[0]
    out = rc.gather(X, 0, dipath, dipath.positions[0], dipath.positions[-1])
    assert out.arcs == []


def gather_reference(X, face, interval, pos_i, pos_j):
    """``gather`` as first written: an inner loop over the endpoints at the
    source angle, outermost first, that leaves on its first one."""
    for source, direction, target in (
        (pos_i, rc.RIGHT, pos_j),
        (pos_j, rc.LEFT, pos_i),
    ):
        work = X.copy()
        ok = True
        while True:
            ends = [
                e
                for e in work.endpoints_on(face, interval.positions)
                if work.endpoint_position(e) == source
            ]
            if not ends:
                break
            moved_any = False
            for e in (list(reversed(ends)) if direction == rc.RIGHT else ends):
                out, moved = rc.shift(work, e, direction)
                if moved and out.endpoint_position(e) == target:
                    work = out
                    moved_any = True
                    break
                ok = False
                break
            if not ok or not moved_any:
                break
        if ok:
            return work
    raise GatherBlocked(
        f"face {face}: angles {pos_i},{pos_j} resist gathering"
    )


def test_gather_matches_reference_on_random_multicompletions():
    rng = random.Random(3)
    outcomes = {"gathered": 0, "blocked": 0}
    for seed in range(120):
        n = 5 + seed % 5
        D = pog_io.gen_random(n, n - 1 + seed % (2 * n - 5), 700 + seed)
        for f in range(D.f):
            ivs = [iv for iv in fa.decompose_face(D, f).intervals()
                   if len(iv) >= 2]
            r = len(D.faces[f])
            for _ in range(3 * len(ivs)):
                iv = rng.choice(ivs)
                X = rc.Multicompletion(D, [
                    rc.MultiArc(rng.choice(iv.positions), rng.randrange(r), f)
                    if rng.random() < 0.5 else
                    rc.MultiArc(rng.randrange(r), rng.choice(iv.positions), f)
                    for _ in range(rng.randrange(1, 5))])
                # two angles with no endpoint strictly between them
                rank = {p: t for t, p in enumerate(iv.positions)}
                used = sorted({rank[X.endpoint_position(e)]
                               for e in X.endpoints_on(f, iv.positions)})
                a = rng.randrange(len(used))
                hi = used[a + 1] if a + 1 < len(used) else len(iv) - 1
                if hi == used[a]:
                    continue
                pos_i = iv.positions[used[a]]
                pos_j = iv.positions[rng.randrange(used[a] + 1, hi + 1)]
                before = list(X.arcs)
                try:
                    want = gather_reference(X, f, iv, pos_i, pos_j).arcs
                except GatherBlocked:
                    want = GatherBlocked
                try:
                    got = rc.gather(X, f, iv, pos_i, pos_j).arcs
                except GatherBlocked:
                    got = GatherBlocked
                assert got == want and X.arcs == before
                outcomes["blocked" if want is GatherBlocked else "gathered"] += 1
    assert min(outcomes.values()) > 50, outcomes


def test_to_supported_fixed_point(simple_square):
    D = simple_square
    walk = D.faces[0]
    verts = [D.dart_vertex(d) for d in walk]
    comp = D.completion_from_darts([(walk[verts.index(2)], walk[verts.index(0)])])
    out = rc.to_supported(D, comp)
    assert out.key() == comp.key()


def test_to_supported_rejects_non_solution(simple_square):
    with pytest.raises(NotASolution):
        rc.to_supported(simple_square, pg.EMPTY_COMPLETION)


def test_to_supported_on_small_corpus():
    tested = 0
    for D in ep.oriented_corpus(5)[::5]:
        rep = sv.brute_solve(D, 3)
        if not rep.verdict or rep.optimum == 0:
            continue
        sup = rc.to_supported(D, rep.witness)
        assert len(sup.arcs) == rep.optimum
        ok, diag = sv.verify_solution(D, sup)
        assert ok, diag
        assert ce.is_supported(D, sup)
        tested += 1
    assert tested > 40


def test_backward_arcs_not_nested_in_minimum_solutions():
    for D in ep.oriented_corpus(5)[::9]:
        rep = sv.brute_solve(D, 3)
        if not rep.verdict or rep.optimum == 0:
            continue
        sup = rc.to_supported(D, rep.witness)
        by_face = {}
        for a in sup.arcs:
            by_face.setdefault(a.face, []).append(a)
        for face, arcs in by_face.items():
            dec = fa.decompose_face(D, face)
            for P in dec.dipaths:
                span = set(P.positions)
                backs = [
                    a for a in arcs
                    if a.tail.position in span and a.head.position in span
                ]
                rank = {p: i for i, p in enumerate(P.positions)}
                for a in backs:
                    # right-to-left along the walk direction of the dipath
                    forward = pg.dart_is_tail(D.faces[face][P.positions[-1]])
                    lo = rank[a.head.position]
                    hi = rank[a.tail.position]
                    if forward:
                        assert lo <= hi
                    else:
                        assert hi <= lo
                for a, b in zip(backs, backs[1:]):
                    inner = range(
                        min(rank[a.tail.position], rank[a.head.position]),
                        max(rank[a.tail.position], rank[a.head.position]) + 1,
                    )
                    jnner = range(
                        min(rank[b.tail.position], rank[b.head.position]),
                        max(rank[b.tail.position], rank[b.head.position]) + 1,
                    )
                    assert not (
                        set(inner) < set(jnner) or set(jnner) < set(inner)
                    )
