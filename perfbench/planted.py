"""Planted large-n instances: strong plane graphs with a few arcs removed.

A random 2-edge-connected plane graph is built on a grid, oriented
strongly by a depth-first search (Robbins' theorem) and then loses ``j``
arcs so that it stays connected but is no longer strong.  Putting the
removed arcs back is a solution of size ``j`` in both modes, so every
instance has optimum at most ``j``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from orient_augment import plane_graph as pg

import checker

MAX_HOST_FACE = 6
OPEN_FACE = 10


@dataclass(frozen=True)
class PlantedInstance:
    graph: pg.PlaneDigraph
    removed: int                 # j, the number of arcs taken out
    witness: pg.Completion       # the removed arcs, as a completion of graph


def _grid_graph(rows: int, cols: int, rng: random.Random):
    """Grid on rows x cols vertices, a random diagonal in some cells and an
    apex joined to every boundary vertex, so that every face is short.
    Returns (n, edges, rotation as lists of edge ends 2e / 2e+1)."""
    vid = lambda r, c: r * cols + c
    apex = rows * cols
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
            if r + 1 < rows and c + 1 < cols and rng.random() < 0.5:
                if rng.random() < 0.5:
                    edges.append((vid(r, c), vid(r + 1, c + 1)))
                else:
                    edges.append((vid(r, c + 1), vid(r + 1, c)))
    cy, cx = (rows - 1) / 2, (cols - 1) / 2
    boundary = [
        vid(r, c) for r in range(rows) for c in range(cols)
        if r in (0, rows - 1) or c in (0, cols - 1)
    ]
    for v in boundary:
        edges.append((v, apex))

    def direction(v: int, w: int) -> float:
        if w == apex:  # outwards from the grid centre
            return math.atan2(v // cols - cy, v % cols - cx)
        return math.atan2(w // cols - v // cols, w % cols - v % cols)

    n = apex + 1
    ends: list[list[tuple[float, int]]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        if v == apex:
            # seen from the apex the boundary runs the other way round
            ends[apex].append((-direction(u, apex), 2 * e + 1))
        else:
            ends[v].append((direction(v, u), 2 * e + 1))
        ends[u].append((direction(u, v), 2 * e))
    rotation = [[d for _, d in sorted(ring)] for ring in ends]
    return n, edges, rotation


def _merge_faces(n, edges, rotation, max_face: int, rng: random.Random):
    """Delete random edges while every face stays at most ``max_face`` long
    and the graph stays 2-edge-connected.  An edge is a bridge exactly when
    one face lies on both its sides, so an edge may go when its two faces
    differ and no other edge separates the same two faces."""
    D = pg.build(n, edges, rotation, mode=pg.MODE_MULTI)
    face_of = [D.face_of_dart(d) for d in range(2 * len(edges))]
    size = [len(w) for w in D.faces]
    # between[f][g]: how many edges separate faces f and g
    between: list[dict[int, int]] = [{} for _ in range(D.f)]
    for e in range(len(edges)):
        f, g = face_of[2 * e], face_of[2 * e + 1]
        between[f][g] = between[f].get(g, 0) + 1
        between[g][f] = between[g].get(f, 0) + 1
    parent = list(range(D.f))

    def find(f: int) -> int:
        while parent[f] != f:
            parent[f] = parent[parent[f]]
            f = parent[f]
        return f

    alive = set(range(len(edges)))
    order = list(range(len(edges)))
    rng.shuffle(order)
    for e in order:
        f1, f2 = find(face_of[2 * e]), find(face_of[2 * e + 1])
        if f1 == f2 or size[f1] + size[f2] - 2 > max_face:
            continue
        if between[f1][f2] != 1:
            continue
        alive.remove(e)
        parent[f2] = f1
        size[f1] += size[f2] - 2
        del between[f1][f2]
        for g, c in between[f2].items():
            if g == f1:
                continue
            between[f1][g] = between[f1].get(g, 0) + c
            between[g][f1] = between[g].get(f1, 0) + c
            del between[g][f2]
        between[f2] = {}
    keep = sorted(alive)
    return _restrict(edges, rotation, keep)


def _restrict(edges, rotation, keep):
    """Edges ``keep`` (renumbered in that order) with their rotation."""
    new_id = {e: i for i, e in enumerate(keep)}
    rot = [
        [2 * new_id[d >> 1] + (d & 1) for d in ring if (d >> 1) in new_id]
        for ring in rotation
    ]
    return [edges[e] for e in keep], rot


def _strong_orientation(n, edges, rng: random.Random) -> list[bool]:
    """Per edge, True to keep (u, v) and False to reverse it: tree edges of
    a depth-first search point away from the root, the others back up."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        inc[u].append((e, v))
        inc[v].append((e, u))
    for lst in inc:
        rng.shuffle(lst)
    forward: list[bool | None] = [None] * len(edges)
    seen = [False] * n
    root = rng.randrange(n)
    seen[root] = True
    stack = [(root, iter(inc[root]))]
    while stack:
        v, it = stack[-1]
        for e, w in it:
            if forward[e] is not None:
                continue
            forward[e] = edges[e][0] == v  # oriented v -> w
            if not seen[w]:
                seen[w] = True
                stack.append((w, iter(inc[w])))
                break
        else:
            stack.pop()
    return forward


def local_terminal_counts(D) -> list[int]:
    """Per face, the number of local terminals: maximal boundary runs of
    one strong component whose two flanking boundary arcs both leave the
    run or both enter it."""
    comp = checker.components(D.n, D.arcs)
    out = []
    for walk in D.faces:
        r = len(walk)
        vals = [comp[D.arcs[d >> 1][d & 1]] for d in walk]
        if len(set(vals)) == 1:
            out.append(0)
            continue
        count = 0
        for i in range(r):
            if vals[i] == vals[i - 1]:
                continue  # runs are counted at their first position
            last = i
            while vals[(last + 1) % r] == vals[i]:
                last += 1
            pre_out = (walk[i - 1] ^ 1) & 1 == 0
            post_out = walk[last % r] & 1 == 0
            count += pre_out == post_out
        out.append(count)
    return out


def planted_instance(n_target: int, seed: int) -> PlantedInstance:
    """One planted instance on about ``n_target`` vertices.

    The host's faces are at most ``MAX_HOST_FACE`` long.  Once the arcs are
    removed, exactly one face meets several strong components: a simple
    face (two local terminals) of length ``OPEN_FACE``.  That keeps the
    instance out of the alternating-face branching and gives every instance
    the same ``simple_face_candidates`` work, which grows steeply with the
    face length (see README, "Cut-offs")."""
    rng = random.Random(seed)
    rows = max(3, round(math.sqrt(n_target - 1)))
    cols = max(3, round((n_target - 1) / rows))
    while True:
        n, edges, rotation = _grid_graph(rows, cols, rng)
        edges, rotation = _merge_faces(n, edges, rotation, MAX_HOST_FACE, rng)
        forward = _strong_orientation(n, edges, rng)
        arcs = [(u, v) if f else (v, u) for (u, v), f in zip(edges, forward)]
        rotation = [
            [d if forward[d >> 1] else d ^ 1 for d in ring] for ring in rotation
        ]
        for _ in range(200):
            j = rng.randint(1, 3)
            gone = set(rng.sample(range(len(arcs)), j))
            keep = [a for a in range(len(arcs)) if a not in gone]
            rest = [arcs[a] for a in keep]
            if not checker.connected(n, rest) or checker.is_strong(n, rest):
                continue
            rest, rest_rot = _restrict(arcs, rotation, keep)
            D = pg.build(n, rest, rest_rot, mode=pg.MODE_ORIENTED)
            if (checker.open_face_lengths(D) != [OPEN_FACE]
                    or max(local_terminal_counts(D)) != 2):
                continue
            return PlantedInstance(D, j, _witness(D, rotation, keep, gone))


def _witness(D, rotation, keep, gone) -> pg.Completion:
    """The removed arcs as angle pairs of ``D``: each removed end goes back
    in front of the next surviving end of its vertex's rotation."""
    new_id = {a: i for i, a in enumerate(keep)}
    angle_of: dict[int, int] = {}
    for ring in rotation:
        for i, d in enumerate(ring):
            if (d >> 1) not in gone:
                continue
            t = i
            while (ring[t % len(ring)] >> 1) in gone:
                t += 1
            nxt = ring[t % len(ring)]
            angle_of[d] = 2 * new_id[nxt >> 1] + (nxt & 1)
    return D.completion_from_darts(
        [(angle_of[2 * a], angle_of[2 * a + 1]) for a in sorted(gone)]
    )
