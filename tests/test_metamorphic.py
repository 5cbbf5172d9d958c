"""Checks that need no oracle: transforms of the input that must keep the
verdict and the optimum of both solvers."""

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


@pytest.mark.parametrize("solve", [sv.solve_oriented, sv.solve_directed])
def test_transforms_keep_verdict_and_optimum(solve):
    checked = 0
    for i, D in enumerate(instances()):
        base = solve(D, 3)
        for E in (mirror(D), reverse_arcs(D), relabel(D, seed=i)):
            rep = solve(E, 3)
            assert (rep.verdict, rep.optimum) == (base.verdict, base.optimum)
        checked += 1
    assert checked >= 55
