import itertools

import pytest

from orient_augment import hardness as hg
from orient_augment import plane_graph as pg
from orient_augment import solvers as sv
from orient_augment import strongconn as sc
from orient_augment.errors import (
    AssignmentDoesNotSatisfy,
    EmbeddingConflict,
    InvalidArity,
)

from rowview import supported_rows


def completions_hitting(D, must_out, must_in, max_arcs=6):
    """Reference enumerator: inner-face completions whose arcs leave every
    vertex of must_out and enter every vertex of must_in."""
    inner = [f for f in range(D.f) if f != D.outer_face]
    cands = []
    for f in inner:
        walk = D.faces[f]
        for i in range(len(walk)):
            for j in range(len(walk)):
                if i == j:
                    continue
                u, v = D.dart_vertex(walk[i]), D.dart_vertex(walk[j])
                if u == v or D.underlying_adjacent(u, v):
                    continue
                cands.append((f, i, j, u, v))
    res = []
    chosen = []

    def rec(start):
        outs = {u for (_, _, _, u, _) in chosen}
        ins = {v for (_, _, _, _, v) in chosen}
        if all(v in outs for v in must_out) and all(v in ins for v in must_in):
            res.append(frozenset((u, v) for (_, _, _, u, v) in chosen))
        if len(chosen) >= max_arcs:
            return
        for idx in range(start, len(cands)):
            f, i, j, u, v = cands[idx]
            ok = True
            for (f2, i2, j2, u2, v2) in chosen:
                if f2 == f and pg.chords_cross(len(D.faces[f]), i, j, i2, j2):
                    ok = False
                    break
                if (u, v) == (u2, v2) or (u, v) == (v2, u2):
                    ok = False
                    break
            if not ok:
                continue
            chosen.append(cands[idx])
            rec(idx + 1)
            chosen.pop()

    rec(0)
    return res


def test_literal_gadget_shape():
    lit = hg.literal_gadget()
    D, P = lit.graph, lit.ports
    assert D.n == 12 and D.m == 13
    assert sorted(len(w) for w in D.faces) == [5, 5, 16]
    part = sc.scc(D)
    sinks = {part.members[c][0] for c in part.sinks}
    assert sinks == {P["b"], P["l"], P["r"]}


def test_literal_positive_completion_components():
    lit = hg.literal_gadget()
    D, P = lit.graph, lit.ports
    pairs = hg.literal_completion_pairs(D, P, positive=True)
    D2 = pg.insert_arcs(D, pairs)
    part = sc.scc(D2)
    octagon = {P[n] for n in ("b", "bl", "l", "tl", "t", "tr", "r", "br")}
    octagon_sources = {
        part.members[c][0] for c in part.sources
    } & octagon
    assert octagon_sources == {P["bl"], P["tr"]}
    sink_comps = [set(part.members[c]) for c in part.sinks]
    big = max(sink_comps, key=len)
    assert octagon - {P["bl"], P["tr"]} <= big


def test_literal_census_matches_expected_counts():
    lit = hg.literal_gadget()
    D, P = lit.graph, lit.ports
    need = [P["b"], P["l"], P["r"]]
    hits_br = completions_hitting(D, need, [P["br"]])
    hits_bl = completions_hitting(D, need, [P["bl"]])
    assert len(hits_br) == 2
    assert len(hits_bl) == 2
    positive = frozenset(
        (P[u], P[v]) for u, v in hg.POSITIVE_COMPLETION
    )
    negative = frozenset(
        (P[u], P[v]) for u, v in hg.NEGATIVE_COMPLETION
    )
    assert positive in hits_br
    assert negative in hits_bl


def test_variable_gadget_arity_guard():
    with pytest.raises(InvalidArity):
        hg.variable_gadget(1)


def test_variable_gadget_shape():
    for n_x in (2, 3, 4):
        V = hg.variable_gadget(n_x)
        D = V.graph
        assert D.n == 9 * n_x + 1
        assert D.euler_characteristic() == 2


def test_clause_gadget_census():
    cl = hg.clause_gadget()
    D = cl.graph
    assert D.n == 15 and D.m == 30
    part = sc.scc(D)
    assert sorted(len(part.members[c]) for c in part.sources) == [3]
    assert sorted(len(part.members[c]) for c in part.sinks) == [4, 4, 4]
    inner = [f for f in range(D.f) if f != D.outer_face]
    assert all(len(D.faces[f]) == 3 for f in inner)
    # triangle faces admit no completion at all
    for f in inner[:3]:
        assert supported_rows(D, f, 1) == [()]


def one_clause_formula(pols=(True, False, False)):
    return hg.PlanarCnf(
        n_vars=3,
        clauses=((tuple(zip((0, 1, 2), pols))),),
        rotv=((0,), (0,), (0,)),
    )


def test_reduce_one_clause_formula():
    phi = one_clause_formula()
    inst = hg.reduce_formula(phi)
    D = inst.graph
    assert D.connected and D.euler_characteristic() == 2
    assert D.mode == pg.MODE_ORIENTED


def test_assignment_witness_verifies():
    phi = one_clause_formula()
    inst = hg.reduce_formula(phi)
    X = hg.assignment_to_augmentation(phi, inst, [True, True, True])
    ok, diag = sv.verify_solution(inst.graph, X)
    assert ok, diag


def test_exact_solve_of_the_one_clause_instance(monkeypatch):
    # n = 69, 47 strong components, floor 18: the covering search extends
    # one closure of the component DAG, so Tarjan runs only inside scc
    D = hg.reduce_formula(one_clause_formula()).graph
    calls = []
    tarjan = sc.scc_of_arcs
    monkeypatch.setattr(sc, "scc_of_arcs",
                        lambda *a: calls.append(a) or tarjan(*a))
    rep = sv.solve_oriented(D, 30)
    assert rep.optimum == 24
    assert sv.verify_solution(D, rep.witness) == (True, "ok")
    assert len(calls) <= 2


def test_unsatisfying_assignment_rejected():
    phi = one_clause_formula((True, True, True))
    inst = hg.reduce_formula(phi)
    with pytest.raises(AssignmentDoesNotSatisfy):
        hg.assignment_to_augmentation(phi, inst, [False, False, False])


def test_embedding_conflict_detected():
    # torus-style rotations for a doubled clause over the same variables
    with pytest.raises(EmbeddingConflict):
        hg.PlanarCnf(
            n_vars=3,
            clauses=(
                ((0, True), (1, True), (2, True)),
                ((0, False), (1, False), (2, False)),
            ),
            rotv=((0, 1), (0, 1), (0, 1)),
        ).validate()


def test_find_rotations_and_equivalence_sample():
    clauses = [[(0, True), (1, False), (2, False)], [(1, True), (2, True), (3, False)]]
    rots = hg.find_rotations(4, clauses)
    assert rots
    phi = rots[0]
    sat = [
        a
        for a in itertools.product([False, True], repeat=4)
        if all(any(a[v] == p for v, p in c) for c in phi.clauses)
    ]
    inst = hg.reduce_formula(phi)
    X = hg.assignment_to_augmentation(phi, inst, list(sat[0]))
    ok, diag = sv.verify_solution(inst.graph, X)
    assert ok, diag


def test_dimacs_roundtrip():
    text = """c tiny example
p cnf 3 1
1 -2 -3 0
rotv 1 1
rotv 2 1
rotv 3 1
"""
    phi = hg.parse_dimacs(text)
    assert phi.n_vars == 3
    assert phi.clauses[0] == ((0, True), (1, False), (2, False))
    inst = hg.reduce_formula(phi)
    assert inst.graph.connected


def test_linearity_constant():
    phi = one_clause_formula()
    inst = hg.reduce_formula(phi)
    padded = hg.pad_formula(phi)
    occurrences = sum(len(c) for c in padded.clauses)
    ratio = inst.graph.n / (occurrences + len(padded.clauses))
    assert ratio <= 9.0
