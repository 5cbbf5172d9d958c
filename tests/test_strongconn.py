import itertools
import pathlib
import random

import pytest

from orient_augment import completion_enum as ce
from orient_augment import enumerate_plane as ep
from orient_augment import hardness as hg
from orient_augment import plane_graph as pg
from orient_augment import pog_io
from orient_augment import reconfigure as rc
from orient_augment import solvers as sv
from orient_augment import strongconn as sc


def test_scc_path(path3):
    part = sc.scc(path3)
    assert part.count == 3
    assert [part.members[c] for c in part.sources] == [(0,)]
    assert [part.members[c] for c in part.sinks] == [(2,)]


def test_scc_cycle(triangle):
    part = sc.scc(triangle)
    assert part.count == 1
    assert part.terminal_count == 0


def test_condense_acyclic_fixed_point(path3):
    res = sc.condense(path3)
    assert res.contraction_log == ()
    assert res.condensed.arcs == path3.arcs


def test_condense_digon_to_loop():
    D = pg.build(2, [(0, 1), (1, 0)], [(0, 3), (2, 1)], mode="directed")
    res = sc.condense(D)
    assert res.condensed.n == 1
    assert res.condensed.arcs == ((0, 0),)
    assert sc.is_strong(res.condensed)


def test_condense_triangle_with_tail():
    # 3-cycle {0,1,2} plus arc 2->3: contracts to one vertex with a tail
    D = pg.build(
        4,
        [(0, 1), (1, 2), (2, 0), (2, 3)],
        [(0, 5), (2, 1), (4, 6, 3), (7,)],
    )
    res = sc.condense(D)
    assert res.condensed.n == 2
    assert len(res.contraction_log) == 2
    non_loop = [a for a in res.condensed.arcs if a[0] != a[1]]
    assert len(non_loop) == 1


def test_condense_equivalence_on_small_corpus():
    corpus = [D for D in ep.oriented_corpus(5) if D.n >= 2]
    for D in corpus[::7]:
        direct = sv.brute_solve(D, 3, mode="directed")
        via = sv.brute_solve(sc.condense(D).condensed, 3, mode="directed")
        assert direct.verdict == via.verdict
        if direct.verdict:
            assert direct.optimum == via.optimum


def test_brute_positive_respects_terminal_bound():
    for D in ep.oriented_corpus(5)[::5]:
        rep = sv.brute_solve(D, 3)
        if rep.verdict and rep.optimum > 0:
            assert sc.scc(D).terminal_count <= 2 * rep.optimum


def terminal_sides_reference(n, arcs):
    """Source and sink components from a naive fixed-point closure."""
    reach = [1 << v for v in range(n)]
    changed = True
    while changed:
        changed = False
        for u, v in arcs:
            if reach[u] | reach[v] != reach[u]:
                reach[u] |= reach[v]
                changed = True
    reached_by = [sum(1 << w for w in range(n) if (reach[w] >> v) & 1)
                  for v in range(n)]
    comps = {reach[v] & reached_by[v] for v in range(n)}
    if len(comps) <= 1:
        return [], []
    first = lambda m: (m & -m).bit_length() - 1
    sources = sorted(m for m in comps if reached_by[first(m)] == m)
    sinks = sorted(m for m in comps if reach[first(m)] == m)
    return sources, sinks


def closure_graphs():
    yield from ep.oriented_corpus(5)
    for n in range(3, 17):
        for seed in range(4):
            yield pog_io.gen_random(n, n - 1 + seed * (2 * n - 5) // 3, seed)


def test_terminal_sides_matches_naive_closure():
    # sides of the closure of D and, as component masks, scc's sources and
    # sinks and terminal_sides with and without extra arcs
    strong = 0
    for D in closure_graphs():
        want = terminal_sides_reference(D.n, D.arcs)
        sources, sinks = sc.sides(*sc.closure(D.n, D.arcs))
        assert (sorted(sources), sorted(sinks)) == want
        for side in (sources, sinks):
            assert side == sorted(side, key=lambda m: m & -m)
        part = sc.scc(D)
        masks = [sum(1 << v for v in ms) for ms in part.members]
        assert (sorted(masks[c] for c in part.sources),
                sorted(masks[c] for c in part.sinks)) == want
        ends = [(v, (3 * v + 1) % D.n) for v in range(0, D.n, 2)]
        got = part.terminal_sides(ends)
        assert [sorted(sum(masks[c] for c in range(part.count) if m >> c & 1)
                       for m in side) for side in got] == list(
            terminal_sides_reference(D.n, [*D.arcs, *ends]))
        strong += sources == sinks == []
    assert strong > 0


def test_terminal_sides_strong(triangle):
    assert sc.sides(*sc.closure(triangle.n, triangle.arcs)) == ([], [])
    assert sc.sides(*sc.closure(1, [])) == ([], [])
    assert sc.sides([], []) == ([], [])


def test_add_arc_extends_the_closure_arc_by_arc():
    # from the identity, one arc at a time, equal to the closure of the
    # arcs so far; the lists it was handed stay as they were
    cycles = 0
    for D in closure_graphs():
        fwd = bwd = [1 << v for v in range(D.n)]
        for a, (u, v) in enumerate(D.arcs):
            before = fwd, bwd, list(fwd), list(bwd)
            fwd, bwd = sc.add_arc(fwd, bwd, u, v)
            assert before[:2] == before[2:]
            assert (fwd, bwd) == sc.closure(D.n, D.arcs[:a + 1])
            cycles += u != v and not before[2][u] >> v & 1 and fwd[v] >> u & 1
    assert cycles > 500


def _condense_cases():
    graphs = list(ep.oriented_corpus(5))[::3]
    for n in range(6, 28):
        for seed in range(3):
            m = n - 1 + (seed + 1) * (2 * n - 5) // 4
            for mode in ("oriented", "directed"):
                graphs.append(pog_io.gen_random(n, m, seed, mode=mode))
    return graphs


def _canonical_walk(walk):
    i = walk.index(min(walk))
    return tuple(walk[i:] + walk[:i])


def test_cover_search_takes_the_first_set_in_index_order():
    # the path 0 -> 1 -> 2: its source {0} is entered by candidates 0 and
    # 1, its sink {2} left by 0 and 2, so the search tries candidate 0
    path = sc.closure(3, [(0, 1), (1, 2)])
    cands = [(2, 0), (1, 0), (2, 1)]
    assert sc.cover_search(path, cands, 1) == ([0], 2)
    assert sc.cover_search(path, cands, 0) == (None, 1)
    assert sc.cover_search(sc.closure(3, [(0, 1), (1, 2), (2, 0)]), cands,
                           0) == ([], 1)


def _strong_with(D, pairs):
    return max(sc.scc_of_arcs(D.n, [*D.arcs, *pairs]), default=0) == 0


@pytest.mark.parametrize("mode", [pg.MODE_ORIENTED, pg.MODE_DIRECTED])
def test_cover_search_keeps_clear_of_barred_and_conflicting_arcs(mode):
    # sound: a set it returns holds no barred row and no conflicting pair,
    # and makes D strong; complete: it returns one exactly when brute
    # force finds such a set of at most cap rows
    answers = {True: 0, False: 0}
    for t, D in enumerate(ep.oriented_corpus(5)):
        part = sc.scc(D)
        rows, ends, conflict = ce.legal_arcs(D, mode)
        barred = sum(1 << x for x in range(t % 3, len(rows), 3))
        free = [x for x in range(len(rows)) if not barred >> x & 1]
        least = next((size for size in range(4) for xs in
                      itertools.combinations(free, size)
                      if not any(conflict[x] >> y & 1
                                 for x, y in itertools.combinations(xs, 2))
                      and _strong_with(D, [rows[x][1] for x in xs])), None)
        for cap in (1, 2, 3):
            got, _ = sc.cover_search(part.reach, ends, cap, conflict, barred)
            want = least is not None and least <= cap
            assert (got is not None) == want
            answers[want] += 1
            if got is not None:
                assert not any(barred >> x & 1 for x in got)
                assert not any(conflict[x] >> y & 1
                               for x, y in itertools.combinations(got, 2))
                assert _strong_with(D, [rows[x][1] for x in got])
    assert min(answers.values()) > 100, answers


def test_condense_keeps_faces():
    contracted = 0
    for D in _condense_cases():
        res = sc.condense(D)
        C = res.condensed
        assert C.f == D.f
        expected = sorted(
            _canonical_walk([
                2 * res.arc_map[d >> 1] + (d & 1)
                for d in walk if (d >> 1) in res.arc_map
            ])
            for walk in D.faces
        )
        assert expected == sorted(_canonical_walk(list(w)) for w in C.faces)
        assert len(res.arc_map) + len(res.contraction_log) == D.m
        contracted += bool(res.contraction_log)
    assert contracted > 100


def condense_reference(D):
    """``condense`` as first written: a union-find call per arc end, the
    rotation read through ``rot_next`` calls."""
    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    comp = sc.scc(D).component
    root = list(range(D.n))
    contracted = [False] * D.m
    for a, (u, v) in enumerate(D.arcs):
        if comp[u] == comp[v]:
            ru, rv = find(u), find(v)
            if ru != rv:
                root[rv] = ru
                contracted[a] = True
    keep = [a for a in range(D.m) if not contracted[a]]
    arc_map = {a: i for i, a in enumerate(keep)}
    reps = [v for v in range(D.n) if root[v] == v]
    vid = {r: i for i, r in enumerate(reps)}
    rotation = []
    for r in reps:
        ring = []
        if D.rotation[r]:
            start = d = D.rotation[r][0]
            while True:
                if contracted[d >> 1]:
                    d = D._rot_next[d ^ 1]
                else:
                    ring.append(2 * arc_map[d >> 1] + (d & 1))
                    d = D._rot_next[d]
                if d == start:
                    break
        rotation.append(tuple(ring))
    arcs = [(vid[find(D.arcs[a][0])], vid[find(D.arcs[a][1])]) for a in keep]
    condensed = pg.build(len(reps), arcs, rotation, mode=pg.MODE_MULTI)
    return arc_map, tuple(a for a in range(D.m) if contracted[a]), condensed


def test_condense_matches_reference():
    data = pathlib.Path(__file__).parent / "data"
    graphs = _condense_cases() + [
        pog_io.parse_pog(path.read_text())
        for path in sorted(data.glob("planted_multi_*.pog"))]
    merged = 0
    for D in graphs:
        res = sc.condense(D)
        arc_map, log, C = condense_reference(D)
        assert res.original is D
        assert (res.arc_map, res.contraction_log) == (arc_map, log)
        assert (res.condensed.n, res.condensed.arcs, res.condensed.rotation,
                res.condensed.faces) == (C.n, C.arcs, C.rotation, C.faces)
        merged += C.n < D.n - 1
    assert merged > 100


def scc_of_arcs_reference(n, arcs):
    """Tarjan as first written: each work-stack frame holds (vertex, next
    adjacency index) and an on-stack flag array."""
    adj = [[] for _ in range(n)]
    for u, v in arcs:
        if u != v:
            adj[u].append(v)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comp = [-1] * n
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            work.pop()
            if work:
                p = work[-1][0]
                low[p] = min(low[p], low[v])
    return comp


def test_scc_of_arcs_matches_reference():
    """Equal component ids, in the same sinks-first order, on the n <= 5
    corpus, random graphs at n = 9..16, their condensations (loops and
    parallel arcs) and the one-clause hardness instance, with the arcs in
    id order and reversed."""
    graphs = list(ep.oriented_corpus(5))
    for n in range(9, 17):
        for seed in range(6):
            m = (n - 1) + (seed * 7919) % (2 * n - 5)
            mode = "directed" if seed % 3 == 0 else "oriented"
            graphs.append(pog_io.gen_random(n, m, seed=seed, mode=mode))
    condensed = [sc.condense(D).condensed for D in graphs[891:]]
    assert sum(u == v for C in condensed for u, v in C.arcs) > 20
    assert sum(len(C.arcs) - len(set(C.arcs)) for C in condensed) > 20
    phi = hg.PlanarCnf(n_vars=3, clauses=(((0, True), (1, False), (2, False)),),
                       rotv=((0,), (0,), (0,)))
    graphs += condensed + [hg.reduce_formula(phi).graph]
    several = 0
    for D in graphs:
        for arcs in (D.arcs, D.arcs[::-1]):
            comp = sc.scc_of_arcs(D.n, arcs)
            assert comp == scc_of_arcs_reference(D.n, arcs)
        several += max(comp) > 0
    assert several > 500


def is_strong_with_reference(X):
    """Tarjan on the whole vertex set: the host's arcs plus the
    multiset's non-loop arcs."""
    arcs = list(X.D.arcs) + [(u, v) for u, v in X.vertex_pairs() if u != v]
    comp = sc.scc_of_arcs(X.D.n, arcs)
    return max(comp) == 0 if comp else True


def test_is_strong_with_matches_whole_graph_tarjan():
    rng = random.Random(11)
    graphs = [D for D in ep.oriented_corpus(4) if D.m]
    graphs += [pog_io.gen_random(n, n - 1 + s, 40 + s)
               for n in range(4, 10) for s in range(4)]
    seen = {True: 0, False: 0}
    kinds = {"loop": 0, "parallel": 0, "digon": 0, "made strong": 0}
    for D in graphs:
        witness = sv.solve_oriented(D, 3).witness
        for _ in range(6):
            # a solution, or nothing, less one arc sometimes, plus random
            # arcs and sometimes a parallel copy or a reversal of one
            X = rc.Multicompletion.from_completion(
                D, witness if witness and rng.random() < 0.5
                else pg.EMPTY_COMPLETION)
            arcs = X.arcs
            if arcs and rng.random() < 0.3:
                arcs.pop(rng.randrange(len(arcs)))
            for _ in range(rng.randrange(0, 4)):
                f = rng.randrange(D.f)
                r = len(D.faces[f])
                arcs.append(rc.MultiArc(rng.randrange(r), rng.randrange(r), f))
            if arcs and rng.random() < 0.5:
                a = rng.choice(arcs)
                arcs.append(a if rng.random() < 0.5
                            else rc.MultiArc(a.head_pos, a.tail_pos, a.face))
            pairs = X.vertex_pairs()
            kinds["loop"] += any(u == v for u, v in pairs)
            kinds["parallel"] += len(set(pairs)) < len(pairs)
            kinds["digon"] += any((v, u) in pairs for u, v in pairs if u != v)
            want = is_strong_with_reference(X)
            assert X.is_strong_with() == want
            seen[want] += 1
            kinds["made strong"] += want and not sc.is_strong(D)
    assert min(seen.values()) > 100 and min(kinds.values()) > 20, (seen, kinds)
