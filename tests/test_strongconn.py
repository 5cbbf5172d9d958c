import pytest

from orient_augment import enumerate_plane as ep
from orient_augment import plane_graph as pg
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


def test_split_loopless_is_singleton(path3):
    recipe = sc.split_loops(path3)
    assert len(recipe.parts) == 1
    assert recipe.parts[0].graph is path3


def test_split_single_loop_vertex():
    D = pg.build(1, [(0, 0)], [(0, 1)], mode="multi")
    recipe = sc.split_loops(D)
    assert len(recipe.parts) == 2
    assert all(p.graph.n == 1 and p.graph.m == 0 for p in recipe.parts)


def test_split_loop_with_inside_and_outside():
    # loop at v=0 enclosing path 1->2, outside path 3->4
    arcs = [(0, 0), (1, 2), (0, 1), (2, 0), (3, 4), (0, 3), (4, 0)]
    # rotation at 0: loop tail, inside spokes, loop head, outside spokes
    rot0 = (0, 4, 7, 1, 10, 13)
    D = pg.build(
        5, arcs, [rot0, (5, 2), (3, 6), (11, 8), (9, 12)], mode="multi"
    )
    recipe = sc.split_loops(D)
    assert len(recipe.parts) == 2
    vertex_sets = sorted(sorted(p.vertex_back) for p in recipe.parts)
    assert vertex_sets == [[0, 1, 2], [0, 3, 4]]


def test_lift_solution_on_condensed_instance():
    # digon {0,1} plus pendant arc 1->2: condensation merges the digon
    D = pg.build(
        3, [(0, 1), (1, 0), (1, 2)], [(0, 3), (2, 4, 1), (5,)],
        mode="directed",
    )
    res = sc.condense(D)
    rep = sv.brute_solve(res.condensed, 2, mode="directed")
    assert rep.verdict
    lifted = sc.lift_solution(res, rep.witness)
    ok, diag = sv.verify_solution(D, lifted, pg.MODE_DIRECTED)
    assert ok, diag
    assert len(lifted.arcs) == len(rep.witness.arcs)


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


def test_split_conserves_arcs_and_shares_only_loop_vertices():
    arcs = [(0, 0), (1, 2), (0, 1), (2, 0), (3, 4), (0, 3), (4, 0)]
    rot0 = (0, 4, 7, 1, 10, 13)
    D = pg.build(
        5, arcs, [rot0, (5, 2), (3, 6), (11, 8), (9, 12)], mode="multi"
    )
    recipe = sc.split_loops(D)
    n_loops = sum(1 for u, v in D.arcs if u == v)
    assert sum(p.graph.m for p in recipe.parts) == D.m - n_loops
    for i, a in enumerate(recipe.parts):
        for b in recipe.parts[i + 1 :]:
            shared = set(a.vertex_back) & set(b.vertex_back)
            assert shared <= {0}  # only the loop vertex


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


def test_terminal_sides_matches_naive_closure():
    from orient_augment import pog_io

    graphs = list(ep.oriented_corpus(5))
    for n in range(3, 17):
        for seed in range(4):
            graphs.append(pog_io.gen_random(n, n - 1 + seed * (2 * n - 5) // 3, seed))
    strong = 0
    for D in graphs:
        sources, sinks = sc.terminal_sides(D.n, D.arcs)
        assert (sorted(sources), sorted(sinks)) == terminal_sides_reference(D.n, D.arcs)
        assert len(sources) == len(sc.scc(D).sources)
        assert len(sinks) == len(sc.scc(D).sinks)
        strong += sources == sinks == []
    assert strong > 0


def test_terminal_sides_strong(triangle):
    assert sc.terminal_sides(triangle.n, triangle.arcs) == ([], [])
    assert sc.terminal_sides(1, []) == ([], [])
