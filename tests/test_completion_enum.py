import itertools
import pathlib

import pytest

from orient_augment import completion_enum as ce
from orient_augment import enumerate_plane as ep
from orient_augment import face_analysis as fa
from orient_augment import plane_graph as pg
from orient_augment import pog_io
from orient_augment import strongconn as sc
from orient_augment import supports as sp
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


def rows_of(comps):
    """Completions in the row form of ``completion_enum``."""
    return [tuple(((a.tail.dart, a.head.dart), a.ends) for a in c.arcs)
            for c in comps]


def dart_set(row):
    return frozenset(darts for darts, _ in row)


def test_supported_zero_budget(simple_square):
    assert ce.supported_rows(simple_square, 0, 0) == [()]


def test_supported_contains_sink_to_source(simple_square):
    rows = ce.supported_rows(simple_square, 0, 1)
    pairs = {ends for row in rows for _, ends in row}
    assert (2, 0) in pairs  # sink vertex 2 to source vertex 0


def test_supported_enumeration_matches_brute():
    # the full list of the reference recursion is every supported
    # completion; the rows are its minimal members, in order
    checked = 0
    for seed in range(25):
        D = pog_io.gen_random(6, 8, seed)
        for f in range(D.f):
            if len(D.faces[f]) > 10:
                continue
            full = list(supported_completions_reference(D, f, 2))
            assert {c.key() for c in full} == brute_supported(D, f, 2), (seed, f)
            assert ce.supported_rows(D, f, 2) == rows_of(posthoc_minimal(D, full))
            checked += 1
    assert checked > 20


def test_simple_candidates_square(simple_square):
    cands = ce.simple_face_rows(simple_square, 0)
    pair_sets = {frozenset(ends for _, ends in row) for row in cands}
    assert frozenset([(2, 0)]) in pair_sets
    # every candidate stays within three arcs
    assert all(len(row) <= 3 for row in cands)


def test_simple_candidates_rejects_strong_face(triangle):
    with pytest.raises(NotSimpleFace):
        ce.simple_face_rows(triangle, 0)


def test_simple_candidates_cover_all_supported(simple_square):
    # every supported nonempty completion with minimal-usable arcs embeds
    # inside some candidate
    cands = [dart_set(row) for row in ce.simple_face_rows(simple_square, 0)]
    for comp in supported_completions_reference(simple_square, 0, 3):
        if not comp.arcs:
            continue
        if any(a.ends == (0, 2) for a in comp.arcs):
            continue  # ruled out: head reachable from tail already
        key = frozenset((a.tail.dart, a.head.dart) for a in comp.arcs)
        assert any(key <= c for c in cands)


# ---------------------------------------------------------------------------
# minimality filter during generation vs. the post-hoc reference
# ---------------------------------------------------------------------------


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
        D, [c for c in supported_completions_reference(D, f, 3) if c.arcs]
    )
    keys = [c.key() for c in kept]
    return [c for c, key in zip(kept, keys) if not any(key < o for o in keys)]


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
            got = ce.simple_face_rows(D, f)
            assert got == rows_of(simple_candidates_reference(D, f))
            checked += 1
    assert checked > 50


def test_reachability_matches_naive_closure():
    graphs = list(ep.oriented_corpus(5))
    for n in range(3, 17):
        for seed in range(4):
            graphs.append(pog_io.gen_random(n, n - 1 + seed * (2 * n - 5) // 3, seed))
    for D in graphs:
        assert sc.reach(D) == closure_reference(D)
        # the one-pass closure relies on Tarjan's sinks-first numbering
        assert all(cu > cv for cu, cv in sc.scc(D).comp_arcs)


# ---------------------------------------------------------------------------
# the enumeration kernel vs. the recursion it replaced
# ---------------------------------------------------------------------------


def supported_completions_reference(D, face, budget, minimal_only=False):
    """One recursion per node over the later candidates, checking pairs,
    crossings and support from scratch at every node."""
    yield pg.EMPTY_COMPLETION
    if budget <= 0:
        return
    ivs = fa.decompose_face(D, face).intervals()
    if not ivs:
        return
    walk = D.faces[face]
    r = len(walk)
    vert = [D.dart_vertex(d) for d in walk]
    _, nbr = D.adjacency()
    reach = sc.reach(D) if minimal_only else None
    cands = []
    for i, u in enumerate(vert):
        blocked = nbr[u] | 1 << u | (reach[u] if minimal_only else 0)
        for j, v in enumerate(vert):
            if not blocked >> v & 1:
                cands.append((i, j, u, v))
    pool = set()
    for iv in ivs:
        pool |= sp.support_pool(D, iv, 2 * budget)
    cands = [c for c in cands if c[0] in pool and c[1] in pool]
    label = sc.scc(D).component if minimal_only else range(D.n)
    pair_of = [frozenset((label[u], label[v])) for (_, _, u, v) in cands]
    used_pairs = set()
    iv_of = {p: iv for iv in ivs for p in iv.positions}
    chosen = []

    def check_supported():
        per_iv = {}
        for (i, j, _, _) in chosen:
            per_iv.setdefault(iv_of[i].positions, []).append(i)
            per_iv.setdefault(iv_of[j].positions, []).append(j)
        return all(sp.is_supported_on_interval(D, iv, per_iv[iv.positions])
                   for iv in ivs if iv.positions in per_iv)

    def rec(start):
        for idx in range(start, len(cands)):
            i, j, _, _ = cands[idx]
            pair = pair_of[idx]
            if pair in used_pairs or any(
                pg.chords_cross(r, i, j, i2, j2) for (i2, j2, _, _) in chosen
            ):
                continue
            chosen.append(cands[idx])
            used_pairs.add(pair)
            if check_supported():
                yield D.completion_from_darts(
                    [(walk[a], walk[b]) for (a, b, _, _) in chosen])
            if len(chosen) < budget:
                yield from rec(idx + 1)
            chosen.pop()
            used_pairs.discard(pair)

    yield from rec(0)


def kernel_graphs():
    yield from ep.oriented_corpus(5)
    # at least 2n - 3 arcs: sparser graphs at n >= 9 have faces whose
    # unpruned lists run to hundreds of thousands of completions
    for seed in range(24):
        n = 9 + seed % 6
        yield pog_io.gen_random(n, 2 * n - 3 + seed % (n - 2), seed)


def test_kernel_matches_reference_recursions():
    # the kernel against the minimal reference recursion, and against the
    # full one filtered after enumeration
    checked = 0
    for D in kernel_graphs():
        for f in range(D.f):
            for b in (1, 2, 3):
                got = ce.supported_rows(D, f, b)
                assert got == rows_of(
                    supported_completions_reference(D, f, b, True))
                assert got == rows_of(posthoc_minimal(
                    D, supported_completions_reference(D, f, b, False)))
                checked += len(got) > 1
    assert checked > 1000


def row_graphs(random78):
    """The first 150 random n = 7/8 acceptance instances and both
    many-simple-face fixtures."""
    data = pathlib.Path(__file__).parent / "data"
    hosts = [pog_io.parse_pog((data / f"planted_multi_{j}.pog").read_text())
             for j in (7, 12)]
    return hosts + [random78(i) for i in range(150)]


def test_rows_round_trip_through_completions(random78):
    # the Monte-Carlo search reads rows and builds a Completion of the
    # witness's darts only, so each row must be the darts and ends, in
    # order, of the completion its darts make.  Budgets stop at 2: at 3
    # the lists of these graphs hold 2.5 * 10^5 rows
    def round_trip(D, rows):
        return rows_of(D.completion_from_darts([d for d, _ in row])
                       for row in rows)

    checked = 0
    for D in row_graphs(random78):
        for f in range(D.f):
            for b in range(3):
                got = ce.supported_rows(D, f, b)
                assert got == round_trip(D, got)
                checked += len(got) > 1
        for f in fa.simple_faces(D):
            got = ce.simple_face_rows(D, f)
            assert got == round_trip(D, got)
    assert checked > 400
