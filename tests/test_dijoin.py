import itertools

import pytest

from orient_augment import completion_enum as ce
from orient_augment import dijoin as dj
from orient_augment import face_analysis as fa
from orient_augment import plane_graph as pg
from orient_augment import solvers as sv
from orient_augment import strongconn as sc
from orient_augment.errors import NonGadgetArcInY, UnknownArc


def test_is_dijoin_basics():
    g = dj.Digraph(2, [(0, 1)])
    assert dj.is_dijoin(g, [0])
    assert not dj.is_dijoin(g, [])
    cyc = dj.Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert dj.is_dijoin(cyc, [])
    path = dj.Digraph(3, [(0, 1), (1, 2)])
    assert not dj.is_dijoin(path, [0])
    with pytest.raises(UnknownArc):
        dj.is_dijoin(path, [5])


def test_min_dijoin_examples():
    path = dj.Digraph(3, [(0, 1), (1, 2)])
    assert sorted(dj.min_dijoin_upto(path, 3)) == [0, 1]
    star = dj.Digraph(4, [(0, 1), (0, 2), (0, 3)])
    assert sorted(dj.min_dijoin_upto(star, 3)) == [0, 1, 2]
    cyc = dj.Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert dj.min_dijoin_upto(cyc, 2) == []
    assert dj.min_dijoin_upto(path, 1) is None


def brute_min_dijoin(g, k):
    for size in range(k + 1):
        for sub in itertools.combinations(range(len(g.arcs)), size):
            if dj.is_dijoin(g, sub):
                return size
    return None


def random_digraphs(count, max_n=5, max_m=8):
    import random

    rng = random.Random(42)
    out = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        m = rng.randint(1, max_m)
        arcs = []
        for _ in range(m):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v:
                arcs.append((u, v))
        # keep only weakly connected graphs, as the solvers do
        if not arcs:
            continue
        seen = {arcs[0][0]}
        changed = True
        while changed:
            changed = False
            for u, v in arcs:
                if (u in seen) != (v in seen):
                    seen |= {u, v}
                    changed = True
        if len(seen) < n:
            continue
        out.append(dj.Digraph(n, arcs))
    return out


def test_min_dijoin_matches_subset_brute():
    for g in random_digraphs(150):
        for k in (0, 1, 2, 3):
            got = dj.min_dijoin_upto(g, k)
            want = brute_min_dijoin(g, k)
            if want is None:
                assert got is None
            else:
                assert got is not None and len(got) == want
                assert dj.is_dijoin(g, got)


def min_dijoin_reference(g, k, reversible=None):
    """``min_dijoin_upto`` as it was before it ran on
    ``strongconn.cover_search``: the same covering branch, without
    skipping the arcs an earlier sibling tried."""
    allowed = (
        set(range(len(g.arcs))) if reversible is None else set(reversible)
    )
    base = list(g.arcs)

    def search(budget, chosen):
        arcs = base + [(v, u) for (u, v) in (g.arcs[a] for a in chosen)]
        sources, sinks = sc.terminal_sides(g.n, arcs)
        if not sources and not sinks:
            return list(chosen)
        if max(len(sources), len(sinks)) > budget:
            return None
        free = [(a, g.arcs[a]) for a in sorted(allowed.difference(chosen))]
        best_cands = None
        for side, into in [(s, 0) for s in sources] + [(s, 1) for s in sinks]:
            cands = [
                a for a, ends in free
                if (side >> ends[into]) & 1 and not (side >> ends[1 - into]) & 1
            ]
            if best_cands is None or len(cands) < len(best_cands):
                best_cands = cands
        if not best_cands:
            return None
        for a in best_cands:
            chosen.append(a)
            res = search(budget - 1, chosen)
            if res is not None:
                return res
            chosen.pop()
        return None

    for b in range(0, k + 1):
        res = search(b, [])
        if res is not None:
            return res
    return None


def test_min_dijoin_returns_the_reference_witness():
    # the same arcs in the same order as the reference search
    multi = 0
    for g in random_digraphs(150):
        for k in (0, 1, 2, 3):
            got = dj.min_dijoin_upto(g, k)
            assert got == min_dijoin_reference(g, k)
            multi += got is not None and len(got) >= 2
    assert multi >= 40


def candidates(D, f):
    """The simple face's candidate list, as completions."""
    return [D.completion_from_darts([d for d, _ in row])
            for row in ce.simple_face_rows(D, f)]


def test_min_dijoin_on_gadget_arcs_returns_the_reference_witness():
    from orient_augment import enumerate_plane as ep

    yes = no = 0
    for D in ep.oriented_corpus(5)[::9]:
        lists = [(f, candidates(D, f))
                 for f in fa.simple_faces(D)][:3]
        lists = [(f, cs) for f, cs in lists if cs]
        for pick in range(3):
            allowed = {f: cs[pick % len(cs)] for f, cs in lists}
            for k in (1, 2, 3):
                inst = dj.build_auxiliary(D, allowed, k)
                got = dj.min_dijoin_upto(
                    inst.graph, k, reversible=inst.reversible)
                assert got == min_dijoin_reference(
                    inst.graph, k, reversible=inst.reversible)
                yes += got is not None and len(got) >= 2
                no += got is None
    assert yes >= 20 and no >= 20


def test_auxiliary_without_candidates_mirrors_strongness(path3, triangle):
    inst = dj.build_auxiliary(path3, {}, 2)
    assert dj.min_dijoin_upto(inst.graph, inst.budget, inst.reversible) is None
    inst = dj.build_auxiliary(triangle, {}, 2)
    assert dj.min_dijoin_upto(inst.graph, inst.budget, inst.reversible) == []


def test_auxiliary_shape(simple_square):
    D = simple_square
    f = fa.simple_faces(D)[0]
    cands = candidates(D, f)
    single = next(
        c for c in cands if [a.ends for a in c.arcs] == [(2, 0)]
    )
    k = 2
    inst = dj.build_auxiliary(D, {f: single}, k)
    # (k+1)-subdivision of 4 arcs plus one gadget with two length-(k+1) paths
    assert len(inst.reversible) == 1
    expected_arcs = D.m * (k + 1) + 1 + 2 * (k + 1)
    assert len(inst.graph.arcs) == expected_arcs
    y = dj.min_dijoin_upto(inst.graph, inst.budget, inst.reversible)
    assert y is not None and len(y) == 1
    ext = dj.extract_solution(inst, y)
    assert [a.ends for a in ext.arcs] == [(2, 0)]
    ok, _ = sv.verify_solution(D, ext)
    assert ok


def test_extract_rejects_non_gadget_arc(simple_square):
    D = simple_square
    f = fa.simple_faces(D)[0]
    cands = candidates(D, f)
    inst = dj.build_auxiliary(D, {f: cands[0]}, 1)
    subdivision_arc = 0
    assert subdivision_arc not in inst.back_map
    with pytest.raises(NonGadgetArcInY):
        dj.extract_solution(inst, [subdivision_arc])


def test_unrestricted_search_never_uses_subdivision_arcs(simple_square):
    # price argument: on the subdivided instance even the unrestricted
    # search returns gadget arcs only
    D = simple_square
    f = fa.simple_faces(D)[0]
    single = next(
        c for c in candidates(D, f)
        if [a.ends for a in a_list(c)] == [(2, 0)]
    )
    inst = dj.build_auxiliary(D, {f: single}, 2)
    y = dj.min_dijoin_upto(inst.graph, inst.budget)  # no marker restriction
    assert y is not None
    assert all(a in inst.back_map for a in y)


def a_list(c):
    return list(c.arcs)


def test_reduction_equivalence_on_tiny_instances():
    """Allowed-arc dijoin answers match brute search restricted to the
    allowed arcs, across instances with up to 7 vertices."""
    from orient_augment import enumerate_plane as ep

    tested = 0
    for D in ep.oriented_corpus(5)[::13]:
        sfaces = fa.simple_faces(D)
        if not sfaces:
            continue
        allowed = {}
        for f in sfaces[:2]:
            cands = candidates(D, f)
            if cands:
                allowed[f] = cands[0]
        if not allowed:
            continue
        for k in (1, 2):
            inst = dj.build_auxiliary(D, allowed, k)
            y = dj.min_dijoin_upto(inst.graph, inst.budget, inst.reversible)
            want = brute_allowed(D, allowed, k)
            if want is None:
                assert y is None or len(y) > k
            else:
                assert y is not None and len(y) == want
                ext = dj.extract_solution(inst, y)
                ok, diag = sv.verify_solution(D, ext)
                assert ok, diag
            tested += 1
    assert tested > 20


def brute_allowed(D, allowed, k):
    arcs = [
        (a.tail.dart, a.head.dart)
        for comp in allowed.values()
        for a in comp.arcs
    ]
    from orient_augment import strongconn as sc

    for size in range(k + 1):
        for sub in itertools.combinations(arcs, size):
            try:
                D2 = pg.insert_arcs(D, list(sub))
            except Exception:
                continue
            if sc.is_strong(D2):
                return size
    return None
