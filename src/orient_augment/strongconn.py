"""Strong components, reachability, the covering search, and the
plane-preserving condensation.

Condensation contracts a spanning forest of every strong component (the
one a union-find pass over the arcs in id order picks), keeping multi-arcs
and loops (mode ``multi``).  Each merged vertex's rotation is one walk
around its tree, clockwise at each vertex and across each contracted arc.
Original arc ids stay stable up to the removal of the contracted ones
(``CondensationResult.arc_map``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import plane_graph as pg


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

    def terminal_sides(self, ends=()) -> tuple[list[int], list[int]]:
        """``terminal_sides`` of the graph plus the arcs ``ends`` (vertex
        pairs), run on the component DAG: sides are component-id masks."""
        c = self.component
        return terminal_sides(
            self.count, [*self.comp_arcs, *((c[u], c[v]) for u, v in ends)])

    def solution_floor(self) -> int:
        """Eswaran-Tarjan bound: no solution has fewer arcs than this.
        Every source component needs a solution arc entering it, every
        sink one leaving it, and one arc serves at most one of each."""
        return max(len(self.sources), len(self.sinks))


def scc_of_arcs(n: int, arcs) -> list[int]:
    """Iterative Tarjan; returns component id per vertex.  Ids are numbered
    sinks first: every arc between components goes to a lower id.  Each
    frame of the work stack keeps its own adjacency iterator, and a visited
    vertex is on Tarjan's stack exactly while it has no component."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        if u != v:
            adj[u].append(v)
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if work:
                    p = work[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
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


def cover_search(n: int, arcs, cands, cap: int, conflict=None, barred=0):
    """The first set of at most ``cap`` candidate arcs (vertex pairs) that
    makes the digraph on ``n`` vertices with ``arcs`` strongly connected,
    as candidate indices in the order they were chosen, or None; and the
    number of search nodes it took.

    Covering branch (Eswaran & Tarjan, SIAM J. Comput. 1976): a graph that
    is not strong needs an arc entering each source component and one
    leaving each sink, and one arc serves at most one of each, so a node
    with more terminal sides on one side than the room it has left fails.
    Otherwise it branches, in index order, over the candidates that fix
    the terminal side the fewest of them fix, among those not in the mask
    ``barred``.  A child also bars ``conflict[i]``, the mask of the
    candidates that may not join its arc ``i`` (none when ``conflict`` is
    None), and a candidate an earlier sibling tried is barred below the
    later ones: every set holding it was searched there.  So every set of at most ``cap`` unbarred, pairwise
    conflict-free arcs that makes the graph strong is reached; with the
    cap raised from a floor, the first cap that succeeds is the minimum."""
    chosen: list[int] = []
    nodes = 0

    def search(room: int, barred: int) -> bool:
        nonlocal nodes
        nodes += 1
        sources, sinks = terminal_sides(
            n, [*arcs, *(cands[i] for i in chosen)])
        if not sources or max(len(sources), len(sinks)) > room:
            return not sources
        # a source needs an arc entering it, a sink one leaving it
        for i in min(([i for i in range(len(cands))
                       if side >> cands[i][into] & 1
                       and not side >> cands[i][1 - into] & 1
                       and not barred >> i & 1]
                      for side, into in [(s, 1) for s in sources]
                      + [(s, 0) for s in sinks]), key=len):
            chosen.append(i)
            if search(room - 1, barred if conflict is None
                      else barred | conflict[i]):
                return True
            chosen.pop()
            barred |= 1 << i
        return False

    return (chosen if search(cap, barred) else None), nodes


@pg.derived
def scc(D: pg.PlaneDigraph) -> SccPartition:
    """Strong components with terminal (source/sink) flags.

    A graph with one component has no terminals.
    """
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
    return SccPartition(
        component=tuple(comp),
        members=tuple(tuple(ms) for ms in members),
        comp_arcs=frozenset(comp_arcs),
        sources=sources,
        sinks=sinks,
    )


def is_strong(D: pg.PlaneDigraph) -> bool:
    return scc(D).count <= 1


@pg.derived
def reach(D: pg.PlaneDigraph) -> list[int]:
    """Bitmask of the vertices each vertex reaches, itself included, in one
    pass over the condensation: component ids are numbered sinks first, so
    every successor of a component is final before the component is."""
    part = scc(D)
    creach = [sum(1 << v for v in ms) for ms in part.members]
    succ: list[list[int]] = [[] for _ in creach]
    for cu, cv in part.comp_arcs:
        succ[cu].append(cv)
    for c, targets in enumerate(succ):
        for t in targets:
            creach[c] |= creach[t]
    return [creach[c] for c in part.component]


# ---------------------------------------------------------------------------
# condensation
# ---------------------------------------------------------------------------


@dataclass
class CondensationResult:
    original: pg.PlaneDigraph
    condensed: pg.PlaneDigraph
    arc_map: dict[int, int]              # original arc id -> condensed arc id
    contraction_log: tuple[int, ...]     # contracted original arc ids, in order


def condense(D: pg.PlaneDigraph) -> CondensationResult:
    """Contract a spanning forest of every strong component, preserving
    multi-arcs and loops.

    The forest is the one a union-find pass over the arcs in id order
    picks: an arc is contracted when its ends lie in one strong component
    but not yet in one tree; the tree keeps the id of the tail's root.
    Every other arc inside a component becomes a loop, so the result is
    acyclic apart from loops.  A merged vertex's rotation is one walk
    around its tree from the root's first arc end: clockwise at each
    vertex, crossing each contracted arc to continue clockwise after its
    other end.  Vertices are re-packed to dense ids in root order; arc
    ids shift down only by the contracted arcs.
    """
    comp = scc(D).component
    root = list(range(D.n))  # union-find with path halving, inlined
    contracted = [False] * D.m
    for a, (u, v) in enumerate(D.arcs):
        if comp[u] == comp[v]:
            while root[u] != u:
                root[u] = u = root[root[u]]
            while root[v] != v:
                root[v] = v = root[root[v]]
            if u != v:
                root[v] = u
                contracted[a] = True
    for v in range(D.n):  # flatten: every vertex to its root
        while root[root[v]] != root[v]:
            root[v] = root[root[v]]
    keep = [a for a in range(D.m) if not contracted[a]]
    arc_map = {a: i for i, a in enumerate(keep)}
    reps = [v for v in range(D.n) if root[v] == v]
    vid = {r: i for i, r in enumerate(reps)}
    rot_next = D._rot_next
    rotation = []
    for r in reps:
        ring = []
        if D.rotation[r]:
            start = d = D.rotation[r][0]
            while True:
                if contracted[d >> 1]:
                    d = rot_next[d ^ 1]
                else:
                    ring.append(2 * arc_map[d >> 1] + (d & 1))
                    d = rot_next[d]
                if d == start:
                    break
        rotation.append(tuple(ring))
    arcs = [(vid[root[D.arcs[a][0]]], vid[root[D.arcs[a][1]]]) for a in keep]
    condensed = pg.build(
        len(reps), arcs, rotation, mode=pg.MODE_MULTI, outer_face=0
    )
    return CondensationResult(
        original=D,
        condensed=condensed,
        arc_map=arc_map,
        contraction_log=tuple(a for a in range(D.m) if contracted[a]),
    )
