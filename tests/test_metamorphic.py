"""Checks that need no oracle: transforms of the input that must keep the
verdict and the optimum of both solvers, and whose witnesses, mapped
back, must solve the original."""

import random

import pytest

from orient_augment import enumerate_plane as ep
from orient_augment import plane_graph as pg
from orient_augment import pog_io
from orient_augment import solvers as sv


def mirror(D):
    """The mirror image: every rotation reversed."""
    return pg.build(D.n, D.arcs, [r[::-1] for r in D.rotation], D.mode)


def reverse_arcs(D):
    """Every arc turned around; each arc end trades its tail/head role."""
    return pg.build(
        D.n,
        [(v, u) for u, v in D.arcs],
        [tuple(e ^ 1 for e in r) for r in D.rotation],
        D.mode,
    )


def relabel(D, seed):
    """The same drawing with vertex v renamed perm[v]."""
    perm = list(range(D.n))
    random.Random(seed).shuffle(perm)
    rotation = [()] * D.n
    for v, r in enumerate(D.rotation):
        rotation[perm[v]] = r
    return pg.build(
        D.n, [(perm[u], perm[v]) for u, v in D.arcs], rotation, D.mode
    )


def instances():
    out = list(ep.oriented_corpus(5)[::30])
    out += [
        pog_io.gen_random(n, m, seed)
        for n in (7, 8, 9)
        for m in (n, 2 * n - 2, 3 * n - 7)
        for seed in range(3)
    ]
    return out


def mirror_back(D, dt, dh):
    """The arc of ``D`` drawn where ``mirror(D)`` draws (dt, dh).  An
    angle is the gap on one side of its dart in the ring; reversing the
    ring puts that gap on the other side, where ``D`` keys it by the next
    dart of the ring."""
    def after(d):
        ring = D.rotation[D.dart_vertex(d)]
        return ring[(ring.index(d) + 1) % len(ring)]
    return after(dt), after(dh)


@pytest.mark.parametrize("solve", [sv.solve_oriented, sv.solve_directed])
def test_transforms_keep_verdict_and_optimum(solve):
    mode = "oriented" if solve is sv.solve_oriented else "directed"
    checked = witnesses = 0
    for i, D in enumerate(instances()):
        base = solve(D, 3)
        for E, back in (
            (mirror(D), lambda dt, dh: mirror_back(D, dt, dh)),
            # every dart e of the reversed graph is dart e ^ 1 of D, and
            # the arc points the other way
            (reverse_arcs(D), lambda dt, dh: (dh ^ 1, dt ^ 1)),
            # a relabelling keeps arc ids and rings, so every dart
            (relabel(D, seed=i), lambda dt, dh: (dt, dh)),
        ):
            rep = solve(E, 3)
            assert (rep.verdict, rep.optimum) == (base.verdict, base.optimum)
            if rep.witness is None:
                continue
            # the transformed witness, mapped back, solves D at its optimum
            W = D.completion_from_darts(
                [back(a.tail.dart, a.head.dart) for a in rep.witness.arcs])
            assert len(W) == base.optimum
            assert sv.verify_solution(D, W, mode) == (True, "ok")
            witnesses += 1
        checked += 1
    assert checked >= 55 and witnesses >= 100
