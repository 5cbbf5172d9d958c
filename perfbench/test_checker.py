"""The independent checker accepts real witnesses and rejects mutated ones.

Run with ``python3 -m pytest perfbench``.
"""

import pytest

from orient_augment import enumerate_plane as ep
from orient_augment import plane_graph as pg
from orient_augment import solvers as sv
from orient_augment import strongconn as sc

import checker


@pytest.fixture(scope="module")
def solved():
    """Small instances whose optimum is at least 1, with an optimum
    witness from the oriented solver (itself checked against the oracle
    by the acceptance suite)."""
    out = []
    for D in ep.oriented_corpus(5)[::7]:
        r = sv.solve_oriented(D, 3)
        if r.verdict and r.optimum >= 1:
            out.append((D, checker.witness_triples(r.witness)))
    assert len(out) >= 20
    return out


def test_accepts_solver_witnesses(solved):
    for D, w in solved:
        assert checker.check_witness(D, w, oriented=True) == ""
        assert checker.check_witness(D, w, oriented=False) == ""


def test_rejects_a_dropped_arc(solved):
    for D, w in solved:
        for i in range(len(w)):
            assert checker.check_witness(D, w[:i] + w[i + 1:], oriented=True) == "not strong"


def _boundary_pairs(D, face):
    walk = D.faces[face]
    return [(i, j) for i in range(len(walk)) for j in range(len(walk)) if i != j]


def _vertex(D, face, pos):
    d = D.faces[face][pos]
    return D.arcs[d >> 1][d & 1]


def test_rejects_a_digon(solved):
    seen = 0
    for D, w in solved:
        for face in range(D.f):
            for i, j in _boundary_pairs(D, face):
                u, v = _vertex(D, face, i), _vertex(D, face, j)
                if (v, u) in D.arcs:
                    assert checker.check_witness(D, w + [(face, i, j)], oriented=True) == f"digon {u}<->{v}"
                    assert "digon" not in checker.check_witness(D, w + [(face, i, j)], oriented=False)
                    seen += 1
    assert seen > 0


def test_rejects_a_crossing_pair(solved):
    seen = 0
    for D, w in solved:
        for face, walk in enumerate(D.faces):
            r = len(walk)
            if r < 4:
                continue
            # chords (0, 2) and (1, 3) interleave on any cycle of length >= 4
            extra = [(face, 0, 2), (face, 1, 3)]
            why = checker.check_witness(D, extra, oriented=False)
            if _vertex(D, face, 0) != _vertex(D, face, 2) and _vertex(D, face, 1) != _vertex(D, face, 3) \
                    and not why.startswith(("loop", "parallel")):
                assert why == f"crossing arcs in face {face}"
                seen += 1
    assert seen > 0


def test_components_match_the_package():
    for D in ep.oriented_corpus(5)[::11]:
        ours = checker.components(D.n, D.arcs)
        theirs = sc.scc_of_arcs(D.n, D.arcs)
        assert len({(a, b) for a, b in zip(ours, theirs)}) == len(set(ours)) == len(set(theirs))


def test_eswaran_tarjan_bound():
    path = pg.build(3, [(0, 1), (1, 2)], [(0,), (1, 2), (3,)])
    assert checker.eswaran_tarjan_bound(path.n, path.arcs) == 1
    cycle = [(0, 1), (1, 2), (2, 0)]
    assert checker.eswaran_tarjan_bound(3, cycle) == 0
    star = [(0, 1), (0, 2), (0, 3)]
    assert checker.eswaran_tarjan_bound(4, star) == 3
    assert checker.is_strong(3, cycle) and not checker.is_strong(3, path.arcs)
