"""Exhaustive enumeration of small connected plane graphs and their
orientations.

Plane graphs are generated by breadth-first closure under two operations
that preserve a sphere embedding: adding an edge between two angles of one
face, and hanging a pendant edge with a fresh vertex into an angle.  Every
connected plane graph is reachable (a non-tree graph has a removable
non-bridge edge, a tree has a removable leaf).  Duplicates are removed by
a canonical form of the embedding, taken over every start dart and both
chiralities, so each embedding is kept once up to isomorphism and
reflection.

Orientations of a fixed embedding are deduplicated under the embedding's
automorphism group acting on orientation masks.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import plane_graph as pg


@dataclass(frozen=True)
class PlaneMap:
    """Connected undirected embedding: edges with u <= v plus rotations."""

    n: int
    edges: tuple[tuple[int, int], ...]
    rotation: tuple[tuple[int, ...], ...]  # darts: 2e / 2e+1 as in plane_graph

    @property
    def m(self) -> int:
        return len(self.edges)


def _dart_vertex(emap: PlaneMap, d: int) -> int:
    u, v = emap.edges[d >> 1]
    return u if (d & 1) == 0 else v


def _signature(emap: PlaneMap, start: int, reverse: bool):
    """Canonical BFS labelling of the embedding from one rooted dart.

    Yields a flat tuple: per visited vertex, its rotation read from the
    entry dart as neighbour labels, closed by -1.
    """
    rot = emap.rotation
    ring_of = {}
    idx_of = {}
    for v in range(emap.n):
        ring = rot[v] if not reverse else tuple(reversed(rot[v]))
        ring_of[v] = ring
        for i, d in enumerate(ring):
            idx_of[d] = i
    label = {}
    order = []
    sig = []
    v0 = _dart_vertex(emap, start)
    label[v0] = 0
    order.append((v0, start))
    qi = 0
    while qi < len(order):
        v, entry = order[qi]
        qi += 1
        ring = ring_of[v]
        k = len(ring)
        i0 = idx_of[entry]
        for t in range(k):
            d = ring[(i0 + t) % k]
            w = _dart_vertex(emap, d ^ 1)
            if w not in label:
                label[w] = len(label)
                order.append((w, d ^ 1))
            sig.append(label[w])
        sig.append(-1)
    return tuple(sig), label


def canonical_form(emap: PlaneMap):
    best = None
    for e in range(2 * emap.m):
        for reverse in (False, True):
            s, _ = _signature(emap, e, reverse)
            if best is None or s < best:
                best = s
    return (emap.n, emap.m, best)


def automorphism_edge_actions(emap: PlaneMap) -> list[tuple[tuple[int, ...], int]]:
    """Embedding automorphisms (with reflections) as edge permutation plus
    per-edge direction-flip bitmask."""
    base_sig, base_label = _signature(emap, 0, False)
    edge_index = {}
    for e, (u, v) in enumerate(emap.edges):
        edge_index.setdefault((u, v), e)
    actions = []
    seen = set()
    for d in range(2 * emap.m):
        for reverse in (False, True):
            s, label = _signature(emap, d, reverse)
            if s != base_sig:
                continue
            # vertex map: composite base_label^{-1} . label
            inv_base = {lab: v for v, lab in base_label.items()}
            vmap = {v: inv_base[lab] for v, lab in label.items()}
            perm = []
            flips = 0
            ok = True
            for e, (u, v) in enumerate(emap.edges):
                a, b = vmap[u], vmap[v]
                key = (a, b) if a <= b else (b, a)
                e2 = edge_index.get(key)
                if e2 is None:
                    ok = False
                    break
                perm.append(e2)
                if a > b:
                    flips |= 1 << e
            if ok:
                tu = (tuple(perm), flips)
                if tu not in seen:
                    seen.add(tu)
                    actions.append(tu)
    return actions


# ---------------------------------------------------------------------------
# plane graph generation
# ---------------------------------------------------------------------------


def _as_digraph(emap: PlaneMap) -> pg.PlaneDigraph:
    return pg.build(
        emap.n, emap.edges, emap.rotation, mode=pg.MODE_MULTI
    )


def _expansions(emap: PlaneMap, n_max: int):
    """All one-edge extensions of the embedding."""
    D = _as_digraph(emap)
    adjacent = {frozenset(e) for e in emap.edges}
    out = []
    # chord insertions inside a face
    for f in range(D.f):
        walk = D.faces[f]
        r = len(walk)
        for i in range(r):
            for j in range(i + 1, r):
                u = D.dart_vertex(walk[i])
                v = D.dart_vertex(walk[j])
                if u == v or frozenset((u, v)) in adjacent:
                    continue
                D2 = pg.insert_arcs(D, [(walk[i], walk[j])], mode=pg.MODE_MULTI)
                out.append(
                    PlaneMap(
                        n=D2.n,
                        edges=tuple(
                            (a, b) if a <= b else (b, a) for a, b in D2.arcs
                        ),
                        rotation=_reorient(D2),
                    )
                )
    # pendant vertex at an angle
    if emap.n < n_max:
        for f in range(D.f):
            for d in D.faces[f]:
                u = D.dart_vertex(d)
                e_new = D.m
                arcs = list(D.arcs) + [(u, D.n)]
                rotation = []
                for v in range(D.n):
                    ring = []
                    for x in D.rotation[v]:
                        if x == d:
                            ring.append(2 * e_new)
                        ring.append(x)
                    rotation.append(tuple(ring))
                rotation.append((2 * e_new + 1,))
                out.append(
                    PlaneMap(
                        n=D.n + 1,
                        edges=tuple(
                            (a, b) if a <= b else (b, a) for a, b in arcs
                        ),
                        rotation=tuple(rotation),
                    )
                )
    return out


def _reorient(D: pg.PlaneDigraph) -> tuple[tuple[int, ...], ...]:
    """Rotation darts rewritten for edges stored as (min, max)."""
    ring_out = []
    for v in range(D.n):
        ring = []
        for d in D.rotation[v]:
            a = d >> 1
            u, w = D.arcs[a]
            if u <= w:
                ring.append(d)
            else:
                ring.append(d ^ 1)
        ring_out.append(tuple(ring))
    return tuple(ring_out)


def plane_maps_up_to(n_max: int):
    """Every connected plane graph with 2..n_max vertices, one embedding
    representative per isomorphism class (reflections identified)."""
    m_max = max(3 * n_max - 6, 1)
    k2 = PlaneMap(n=2, edges=((0, 1),), rotation=((0,), (1,)))
    seen = {canonical_form(k2)}
    frontier = [k2]
    result = [k2]
    while frontier:
        nxt = []
        for emap in frontier:
            if emap.m >= m_max:
                continue
            for cand in _expansions(emap, n_max):
                key = canonical_form(cand)
                if key in seen:
                    continue
                seen.add(key)
                nxt.append(cand)
                result.append(cand)
        frontier = nxt
    return result


def orientations(emap: PlaneMap) -> list[pg.PlaneDigraph]:
    """Every orientation of the embedding up to its automorphisms.

    The graphs share their tables: each arc is one of two pair tuples kept
    per map edge, and the rings are interned, so equal rings are one tuple.
    """
    actions = automorphism_edge_actions(emap)
    m = emap.m
    pairs = [(uv, uv[::-1]) for uv in emap.edges]
    rings: dict[tuple[int, ...], tuple[int, ...]] = {}
    reps = []
    seen = set()
    for mask in range(1 << m):
        if mask in seen:
            continue
        orbit = set()
        for perm, flips in actions:
            img = 0
            w = mask ^ flips
            for e in range(m):
                if (w >> e) & 1:
                    img |= 1 << perm[e]
            orbit.add(img)
        rep = min(orbit)
        seen.update(orbit)
        if rep != mask:
            continue
        arcs = [pairs[e][mask >> e & 1] for e in range(m)]
        rotation = []
        for ring in emap.rotation:
            ring = tuple([d ^ (mask >> (d >> 1) & 1) for d in ring])
            rotation.append(rings.setdefault(ring, ring))
        reps.append(pg.build(emap.n, arcs, rotation, mode=pg.MODE_ORIENTED))
    return reps


def oriented_corpus(n_max: int):
    """All connected plane oriented graphs with at most ``n_max`` vertices
    (single-vertex graph included), up to isomorphism and reflection."""
    single = pg.build(1, [], [()], mode=pg.MODE_ORIENTED)
    out = [single]
    for emap in plane_maps_up_to(n_max):
        out.extend(orientations(emap))
    return out
