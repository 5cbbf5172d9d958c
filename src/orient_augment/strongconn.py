"""Strong components, plane-preserving condensation, and loop splitting.

Condensation contracts, in arc-id order, every non-loop arc whose ends lie
in one strong component, keeping multi-arcs and loops (mode ``multi``).
Loop splitting then cuts the resulting DAG-with-loops into loopless parts.
Both steps keep original arc ids stable, so completion arcs expressed as
angle darts lift back through them without translation: an angle keyed by
the dart ``d`` means "insert immediately clockwise of arc end ``d``" in
any of the graphs, and the vertex it attaches to is derived from the graph
at hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import plane_graph as pg
from .errors import NotASolution


@dataclass(frozen=True)
class SccPartition:
    component: tuple[int, ...]          # vertex -> component id
    members: tuple[tuple[int, ...], ...]
    comp_arcs: frozenset[tuple[int, int]]  # arcs of the component DAG
    sources: tuple[int, ...]            # component ids
    sinks: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def terminal_count(self) -> int:
        return len(self.sources) + len(self.sinks)

    def is_strong(self) -> bool:
        return len(self.members) <= 1


def scc_of_arcs(n: int, arcs) -> list[int]:
    """Iterative Tarjan; returns component id per vertex.  Ids are numbered
    sinks first: every arc between components goes to a lower id."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        if u != v:
            adj[u].append(v)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
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


def terminal_sides(n: int, arcs) -> tuple[list[int], list[int]]:
    """Vertex bitmasks of the source components and of the sink
    components, in component-id order; ``([], [])`` when the digraph is
    strongly connected."""
    comp = scc_of_arcs(n, arcs)
    ncomp = max(comp) + 1 if n else 0
    if ncomp <= 1:
        return [], []
    has_in = [False] * ncomp
    has_out = [False] * ncomp
    for u, v in arcs:
        if comp[u] != comp[v]:
            has_out[comp[u]] = True
            has_in[comp[v]] = True
    masks = [0] * ncomp
    for v in range(n):
        masks[comp[v]] |= 1 << v
    sources = [masks[c] for c in range(ncomp) if not has_in[c]]
    sinks = [masks[c] for c in range(ncomp) if not has_out[c]]
    return sources, sinks


def scc(D: pg.PlaneDigraph) -> SccPartition:
    """Strong components with terminal (source/sink) flags.

    A graph with one component has no terminals.
    """
    if D._scc_cache is not None:
        return D._scc_cache
    comp = scc_of_arcs(D.n, D.arcs)
    ncomp = max(comp) + 1 if comp else 0
    members: list[list[int]] = [[] for _ in range(ncomp)]
    for v, c in enumerate(comp):
        members[c].append(v)
    comp_arcs = set()
    for u, v in D.arcs:
        cu, cv = comp[u], comp[v]
        if cu != cv:
            comp_arcs.add((cu, cv))
    if ncomp <= 1:
        sources: tuple[int, ...] = ()
        sinks: tuple[int, ...] = ()
    else:
        has_in = set(cv for _, cv in comp_arcs)
        has_out = set(cu for cu, _ in comp_arcs)
        sources = tuple(c for c in range(ncomp) if c not in has_in)
        sinks = tuple(c for c in range(ncomp) if c not in has_out)
    part = SccPartition(
        component=tuple(comp),
        members=tuple(tuple(ms) for ms in members),
        comp_arcs=frozenset(comp_arcs),
        sources=sources,
        sinks=sinks,
    )
    D._scc_cache = part
    return part


def is_strong(D: pg.PlaneDigraph) -> bool:
    return scc(D).is_strong()


# ---------------------------------------------------------------------------
# condensation
# ---------------------------------------------------------------------------


@dataclass
class CondensationResult:
    original: pg.PlaneDigraph
    condensed: pg.PlaneDigraph
    vertex_map: tuple[int, ...]          # original vertex -> condensed vertex
    arc_map: dict[int, int]              # original arc id -> condensed arc id
    contraction_log: tuple[int, ...]     # original arc ids, contraction order


def _contract_arc(n, arcs, rotation, arc_id):
    """Contract arc ``arc_id`` = (u, v), merging v into u.

    Rotations are spliced: the tail end at u is replaced by v's rotation
    taken clockwise from just after the head end.  Arc ids are unchanged;
    other u-v arcs become loops.
    """
    u, v = arcs[arc_id]
    assert u != v
    t, h = pg.tail_dart(arc_id), pg.head_dart(arc_id)
    ru = rotation[u]
    rv = rotation[v]
    hi = rv.index(h)
    spliced_v = rv[hi + 1 :] + rv[:hi]
    ti = ru.index(t)
    merged = ru[:ti] + spliced_v + ru[ti + 1 :]
    new_rotation = list(rotation)
    new_rotation[u] = merged
    new_rotation[v] = ()
    new_arcs = [
        (u if a == v else a, u if b == v else b) for (a, b) in arcs
    ]
    return new_arcs, new_rotation


def condense(D: pg.PlaneDigraph) -> CondensationResult:
    """Contract every non-loop arc inside a strong component, in arc-id
    order, preserving multi-arcs and loops.

    The result is acyclic apart from loops.  Vertices are re-packed to
    dense ids; arc ids shift down only by the removed (contracted) arcs.
    """
    part = scc(D)
    comp = part.component
    arcs = list(D.arcs)
    rotation = list(D.rotation)
    n = D.n
    log: list[int] = []
    for a in range(len(arcs)):
        u, v = arcs[a]
        if u != v and comp[u] == comp[v]:
            arcs, rotation = _contract_arc(n, arcs, rotation, a)
            log.append(a)

    contracted = set(log)
    keep_arcs = [a for a in range(len(arcs)) if a not in contracted]
    arc_remap = {a: i for i, a in enumerate(keep_arcs)}
    # vertex images: replay merges on a union-find
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in log:
        u0, v0 = D.arcs[a]
        ru, rv = find(u0), find(v0)
        if ru != rv:
            parent[rv] = ru
    reps = sorted({find(v) for v in range(n)})
    vid = {r: i for i, r in enumerate(reps)}
    new_arcs = [
        (vid[find(arcs[a][0])], vid[find(arcs[a][1])]) for a in keep_arcs
    ]
    new_rotation: list[tuple[int, ...]] = [() for _ in reps]
    for r in reps:
        ring = rotation[r]
        new_rotation[vid[r]] = tuple(
            2 * arc_remap[d >> 1] + (d & 1) for d in ring
        )
    condensed = pg.build(
        len(reps),
        new_arcs,
        new_rotation,
        mode=pg.MODE_MULTI,
        outer_face=0,
    )
    return CondensationResult(
        original=D,
        condensed=condensed,
        vertex_map=tuple(vid[find(v)] for v in range(n)),
        arc_map={a: arc_remap[a] for a in keep_arcs},
        contraction_log=tuple(log),
    )


def lift_solution(cond: CondensationResult, x_c: pg.Completion) -> pg.Completion:
    """Map a completion of the condensed graph back to the original.

    Completion endpoints are angle darts; dart ids translate through the
    arc renumbering and then denote the same insertion gap in the original
    graph, whose vertex is the pre-merge endpoint on the correct face side.
    """
    inv_arc = {c: o for o, c in cond.arc_map.items()}
    pairs = []
    for arc in x_c.arcs:
        dt, dh = arc.tail.dart, arc.head.dart
        pairs.append(
            (2 * inv_arc[dt >> 1] + (dt & 1), 2 * inv_arc[dh >> 1] + (dh & 1))
        )
    try:
        return cond.original.completion_from_darts(pairs)
    except Exception as exc:  # pragma: no cover - guarded by verify upstream
        raise NotASolution(f"lift produced invalid completion: {exc}") from exc


# ---------------------------------------------------------------------------
# loop splitting
# ---------------------------------------------------------------------------


@dataclass
class SplitPart:
    graph: pg.PlaneDigraph
    vertex_back: tuple[int, ...]   # part vertex -> parent vertex
    arc_back: tuple[int, ...]      # part arc id -> parent arc id


@dataclass
class SplitRecipe:
    """Loopless parts of an acyclic-with-loops digraph.

    The budget of the parent instance is the sum over parts; part
    solutions recombine by translating angle darts through ``arc_back``
    and taking the union.
    """

    parent: pg.PlaneDigraph
    parts: list[SplitPart] = field(default_factory=list)


def _subgraph(parent: pg.PlaneDigraph, arc_ids: list[int]) -> SplitPart:
    keep = sorted(arc_ids)
    verts = sorted({w for a in keep for w in parent.arcs[a]})
    vmap = {v: i for i, v in enumerate(verts)}
    amap = {a: i for i, a in enumerate(keep)}
    arcs = [(vmap[parent.arcs[a][0]], vmap[parent.arcs[a][1]]) for a in keep]
    rotation = []
    for v in verts:
        ring = [
            2 * amap[d >> 1] + (d & 1)
            for d in parent.rotation[v]
            if (d >> 1) in amap
        ]
        rotation.append(tuple(ring))
    g = pg.build(len(verts), arcs, rotation, mode=pg.MODE_MULTI, outer_face=0)
    return SplitPart(
        graph=g, vertex_back=tuple(verts), arc_back=tuple(keep)
    )


def split_loops(D: pg.PlaneDigraph) -> SplitRecipe:
    """Split a plane DAG-with-loops into loopless plane DAG parts.

    Each loop is removed and the arcs strictly inside / outside of it form
    independent subinstances sharing only the loop vertex.  At most
    ``m`` parts result; the parent's optimum is the sum of part optima.
    """
    recipe = SplitRecipe(parent=D)

    def rec(part: SplitPart) -> None:
        g = part.graph
        loop = next(
            (a for a, (u, v) in enumerate(g.arcs) if u == v), None
        )
        if loop is None:
            if g.m > 0 or g.n == 1:
                recipe.parts.append(part)
            return
        u = g.arcs[loop][0]
        ring = g.rotation[u]
        t, h = pg.tail_dart(loop), pg.head_dart(loop)
        ti, hi = ring.index(t), ring.index(h)
        if ti < hi:
            side1 = ring[ti + 1 : hi]
            side2 = ring[hi + 1 :] + ring[:ti]
        else:
            side1 = ring[ti + 1 :] + ring[:hi]
            side2 = ring[hi + 1 : ti]
        # component-close each side over the loopless remainder
        adj_ends: dict[int, list[int]] = {}
        for v in range(g.n):
            for d in g.rotation[v]:
                if d >> 1 != loop:
                    adj_ends.setdefault(v, []).append(d)
        for label, seed in ((0, side1), (1, side2)):
            seen_arcs: set[int] = set()
            stack = [d >> 1 for d in seed]
            seen_arcs.update(stack)
            frontier = list(stack)
            while frontier:
                a = frontier.pop()
                for w in g.arcs[a]:
                    if w == u:
                        continue  # do not cross the loop vertex
                    for d in adj_ends.get(w, ()):  # all arcs at w
                        if (d >> 1) not in seen_arcs:
                            seen_arcs.add(d >> 1)
                            frontier.append(d >> 1)
            if seen_arcs:
                sub = _subgraph(g, sorted(seen_arcs))
                rec(
                    SplitPart(
                        graph=sub.graph,
                        vertex_back=tuple(
                            part.vertex_back[v] for v in sub.vertex_back
                        ),
                        arc_back=tuple(
                            part.arc_back[a] for a in sub.arc_back
                        ),
                    )
                )
            else:
                # empty interior: a single-vertex part of cost zero
                empty = pg.build(1, [], [()], mode=pg.MODE_MULTI)
                recipe.parts.append(
                    SplitPart(
                        graph=empty,
                        vertex_back=(part.vertex_back[u],),
                        arc_back=(),
                    )
                )

    root = SplitPart(
        graph=D,
        vertex_back=tuple(range(D.n)),
        arc_back=tuple(range(D.m)),
    )
    if any(u == v for u, v in D.arcs):
        rec(root)
    else:
        recipe.parts.append(root)
    return recipe
