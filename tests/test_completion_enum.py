import itertools

import pytest

from orient_augment import completion_enum as ce
from orient_augment import enumerate_plane as ep
from orient_augment import face_analysis as fa
from orient_augment import plane_graph as pg
from orient_augment import pog_io
from orient_augment import strongconn as sc
from orient_augment.errors import NotSimpleFace


def test_catalan_counts():
    assert [ce.catalan(i) for i in range(2, 7)] == [2, 5, 14, 42, 132]


def test_triangulation_enumeration_matches_catalan():
    for m in range(3, 9):
        tris = ce.triangulations(m)
        assert len(tris) == ce.catalan(m - 2)
        assert len(set(tris)) == len(tris)  # no duplicates
        for t in tris:
            assert len(t) == m - 3  # chord count of a polygon triangulation


def brute_supported(D, face, budget):
    """Reference enumerator: all valid completions filtered by the
    supportedness definition."""
    walk = D.faces[face]
    r = len(walk)
    cands = []
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            u, v = D.dart_vertex(walk[i]), D.dart_vertex(walk[j])
            if u == v or D.underlying_adjacent(u, v):
                continue
            cands.append((i, j, u, v))
    out = {pg.EMPTY_COMPLETION.key()}
    for size in range(1, budget + 1):
        for sub in itertools.combinations(cands, size):
            ok = True
            for (i, j, u, v), (i2, j2, u2, v2) in itertools.combinations(sub, 2):
                if pg.chords_cross(r, i, j, i2, j2):
                    ok = False
                    break
                if (u, v) == (u2, v2) or (u, v) == (v2, u2):
                    ok = False
                    break
            if not ok:
                continue
            comp = D.completion_from_darts(
                [(walk[i], walk[j]) for (i, j, _, _) in sub]
            )
            if ce.is_supported(D, comp, face):
                out.add(comp.key())
    return out


def test_supported_zero_budget(simple_square):
    comps = list(ce.supported_completions(simple_square, 0, 0))
    assert comps == [pg.EMPTY_COMPLETION]


def test_supported_contains_sink_to_source(simple_square):
    comps = list(ce.supported_completions(simple_square, 0, 1))
    pairs = {a.ends for c in comps for a in c.arcs}
    assert (2, 0) in pairs  # sink vertex 2 to source vertex 0


def test_supported_enumeration_matches_brute():
    checked = 0
    for seed in range(25):
        D = pog_io.gen_random(6, 8, seed)
        for f in range(D.f):
            if len(D.faces[f]) > 10:
                continue
            got = {c.key() for c in ce.supported_completions(D, f, 2)}
            want = brute_supported(D, f, 2)
            assert got == want, (seed, f)
            checked += 1
    assert checked > 20


def test_simple_candidates_square(simple_square):
    cands = ce.simple_face_candidates(simple_square, 0)
    pair_sets = {frozenset(a.ends for a in c.arcs) for c in cands}
    assert frozenset([(2, 0)]) in pair_sets
    # every candidate stays within three arcs
    assert all(len(c.arcs) <= 3 for c in cands)


def test_simple_candidates_rejects_strong_face(triangle):
    with pytest.raises(NotSimpleFace):
        ce.simple_face_candidates(triangle, 0)


def test_simple_candidates_cover_all_supported(simple_square):
    # every supported nonempty completion with minimal-usable arcs embeds
    # inside some candidate
    cands = [c.key() for c in ce.simple_face_candidates(simple_square, 0)]
    for comp in ce.supported_completions(simple_square, 0, 3):
        if not comp.arcs:
            continue
        if any(a.ends == (0, 2) for a in comp.arcs):
            continue  # ruled out: head reachable from tail already
        key = comp.key()
        assert any(key <= c for c in cands)


def test_directed_simple_face_unique_candidate(simple_square):
    comps = ce.directed_supported_completions(simple_square, 0, 2)
    nonempty = [c for c in comps if c.arcs]
    assert len(nonempty) == 1
    assert [a.ends for a in nonempty[0].arcs] == [(2, 0)]


def test_directed_octagon_counts(alternating_octagon):
    D = alternating_octagon
    comps = ce.directed_supported_completions(D, 0, 3)
    assert comps[0] is pg.EMPTY_COMPLETION
    assert len({c.key() for c in comps}) == len(comps)
    for c in comps:
        for a in c.arcs:
            assert not D.has_arc(*a.ends)


def test_alternating_branches_trivial(triangle, simple_square):
    assert list(ce.alternating_branches(triangle, 2)) == [()]
    assert list(ce.alternating_branches(simple_square, 0)) == [()]


def test_alternating_branch_count_matches_per_face_products(alternating_octagon):
    D = alternating_octagon
    k = 2
    per_face = [
        [c for c in ce.supported_completions(D, f, k)]
        for f in fa.alternating_faces(D)
    ]
    branches = list(ce.alternating_branches(D, k))
    # joint count never exceeds the unconstrained product and covers the
    # empty choice plus every single-face choice
    assert len(branches) <= len(per_face[0]) * len(per_face[1])
    singles = sum(len(p) - 1 for p in per_face)
    assert len(branches) >= 1 + singles - 2 * k


def test_branch_ceiling_constant():
    # enumeration ceiling: branches(k) <= 2**(C*k) with the pinned C
    PINNED_C = 16
    for seed in range(10):
        D = pog_io.gen_random(6, 7, seed)
        for k in (1, 2, 3):
            n_branches = sum(1 for _ in ce.alternating_branches(D, k, minimal_only=True))
            assert n_branches <= 2 ** (PINNED_C * k)


# ---------------------------------------------------------------------------
# minimality filter during generation vs. the post-hoc reference
# ---------------------------------------------------------------------------


def arcs_of(c):
    return tuple((a.face, a.tail.dart, a.head.dart) for a in c.arcs)


def closure_reference(D):
    """Naive fixed-point transitive closure, one bitmask per vertex."""
    reach = [1 << v for v in range(D.n)]
    changed = True
    while changed:
        changed = False
        for u, v in D.arcs:
            if reach[u] | reach[v] != reach[u]:
                reach[u] |= reach[v]
                changed = True
    return reach


def posthoc_minimal(D, comps):
    """Drop, after enumeration, every completion with an arc whose head its
    tail already reaches or with two arcs between one component pair."""
    comp = sc.scc(D).component
    reach = closure_reference(D)
    out = []
    for c in comps:
        pairs = [frozenset((comp[u], comp[v])) for (u, v) in (a.ends for a in c.arcs)]
        if len(set(pairs)) == len(pairs) and not any(
            (reach[a.ends[0]] >> a.ends[1]) & 1 for a in c.arcs
        ):
            out.append(c)
    return out


def simple_candidates_reference(D, f):
    kept = posthoc_minimal(
        D, [c for c in ce.supported_completions(D, f, 3) if c.arcs]
    )
    keys = [c.key() for c in kept]
    return [c for c, key in zip(kept, keys) if not any(key < o for o in keys)]


def alternating_branches_reference(D, k):
    per_face = [
        [pg.EMPTY_COMPLETION]
        + posthoc_minimal(D, [c for c in ce.supported_completions(D, f, k) if c.arcs])
        for f in fa.alternating_faces(D)
    ]
    comp = sc.scc(D).component
    out = []
    for choice in itertools.product(*per_face):
        arcs = [a.ends for c in choice for a in c.arcs]
        pairs = [frozenset((comp[u], comp[v])) for (u, v) in arcs]
        if len(arcs) <= k and len(set(pairs)) == len(pairs):
            out.append(choice)
    return out


def sample_graphs():
    corpus = ep.oriented_corpus(5)
    yield from corpus[::7]
    for seed in range(40):
        n = 6 + seed % 4
        yield pog_io.gen_random(n, n - 1 + seed % (n - 1), seed)


def test_minimal_only_matches_posthoc_filter():
    checked = 0
    for D in sample_graphs():
        for f in fa.simple_faces(D):
            got = [arcs_of(c) for c in ce.simple_face_candidates(D, f)]
            want = [arcs_of(c) for c in simple_candidates_reference(D, f)]
            assert got == want
            checked += 1
        for k in (1, 2):
            got = [
                tuple(map(arcs_of, b))
                for b in ce.alternating_branches(D, k, minimal_only=True)
            ]
            want = [
                tuple(map(arcs_of, b)) for b in alternating_branches_reference(D, k)
            ]
            assert got == want
    assert checked > 50


def test_reachability_matches_naive_closure():
    graphs = list(ep.oriented_corpus(5))
    for n in range(3, 17):
        for seed in range(4):
            graphs.append(pog_io.gen_random(n, n - 1 + seed * (2 * n - 5) // 3, seed))
    for D in graphs:
        assert ce._reachability(D) == closure_reference(D)
        # the one-pass closure relies on Tarjan's sinks-first numbering
        assert all(cu > cv for cu, cv in sc.scc(D).comp_arcs)
