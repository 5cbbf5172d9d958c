"""Planted instances are connected and not strong, and the removed arcs
put back are a witness the independent checker accepts.

Run with ``python3 -m pytest perfbench``.
"""

import pytest

from orient_augment import pog_io
from orient_augment import solvers as sv

import checker
import planted


@pytest.mark.parametrize("n,seed", [(40, 0), (40, 1), (80, 2), (120, 3), (200, 4)])
def test_planted_instance(n, seed):
    inst = planted.planted_instance(n, seed)
    D = inst.graph
    assert abs(D.n - n) <= 6
    assert checker.connected(D.n, D.arcs)
    assert not checker.is_strong(D.n, D.arcs)
    assert 1 <= inst.removed <= 3 and len(inst.witness.arcs) == inst.removed
    triples = checker.witness_triples(inst.witness)
    assert checker.check_witness(D, triples, oriented=True) == ""
    assert checker.check_witness(D, triples, oriented=False) == ""
    assert 1 <= checker.eswaran_tarjan_bound(D.n, D.arcs) <= inst.removed
    assert checker.open_face_lengths(D) == [10]
    assert sorted(set(planted.local_terminal_counts(D))) == [0, 2]
    assert sv.verify_solution(D, inst.witness) == (True, "ok")


def test_same_seed_same_instance():
    a = planted.planted_instance(60, 7)
    b = planted.planted_instance(60, 7)
    assert pog_io.write_pog(a.graph) == pog_io.write_pog(b.graph)
    assert checker.witness_triples(a.witness) == checker.witness_triples(b.witness)
