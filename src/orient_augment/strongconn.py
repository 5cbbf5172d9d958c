"""Strong components, the reachability closure, the covering search, and
the plane-preserving condensation.

Every strong-connectivity question reads one closure: per vertex, the
masks of the vertices it reaches and of those that reach it (``closure``),
extended one arc at a time (``add_arc``), its source and sink classes read
off by ``sides``.  Tarjan runs only to build one (once per graph, in
``scc``), never during a search.

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
    reach: tuple[list[int], list[int]]  # closure of the component DAG
    sources: tuple[int, ...]            # component ids
    sinks: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def terminal_count(self) -> int:
        return len(self.sources) + len(self.sinks)

    def terminal_sides(self, ends=()) -> tuple[list[int], list[int]]:
        """``sides`` of the component DAG plus the arcs ``ends`` (vertex
        pairs): component-id masks."""
        reach, c = self.reach, self.component
        for u, v in ends:
            reach = add_arc(*reach, c[u], c[v])
        return sides(*reach)

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


def _bits(mask: int):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def closure(n: int, arcs, comp=None) -> tuple[list[int], list[int]]:
    """``(fwd, bwd)``: for each vertex, the mask of the vertices it reaches
    and the mask of those that reach it, itself included.  One pass each
    way over the arcs between components ``comp`` (Tarjan's by default),
    sorted by tail: ids number them sinks first, so arcs go to lower ids."""
    comp = scc_of_arcs(n, arcs) if comp is None else comp
    fwd = [0] * (max(comp, default=-1) + 1)
    for v, c in enumerate(comp):
        fwd[c] |= 1 << v
    bwd = fwd[:]
    links = sorted({(comp[u], comp[v]) for u, v in arcs if comp[u] != comp[v]})
    for cu, cv in links:
        fwd[cu] |= fwd[cv]
    for cu, cv in reversed(links):
        bwd[cv] |= bwd[cu]
    return [fwd[c] for c in comp], [bwd[c] for c in comp]


def add_arc(fwd: list[int], bwd: list[int], u: int, v: int
            ) -> tuple[list[int], list[int]]:
    """The closure after adding the arc ``(u, v)``, as new lists (the same
    ones when ``u`` already reaches ``v``): everything that reaches ``u``
    now reaches everything ``v`` reaches."""
    if fwd[u] >> v & 1:
        return fwd, bwd
    ahead, behind = fwd[v], bwd[u]
    return ([f | ahead if behind >> w & 1 else f for w, f in enumerate(fwd)],
            [b | behind if ahead >> w & 1 else b for w, b in enumerate(bwd)])


def sides(fwd: list[int], bwd: list[int]) -> tuple[list[int], list[int]]:
    """Vertex masks of the source classes (nothing outside reaches them)
    and of the sink classes (they reach nothing outside), ordered by their
    lowest vertex; ``([], [])`` when the closure is strongly connected."""
    classes = {f & b: (f, b) for f, b in zip(fwd, bwd)}
    if len(classes) <= 1:
        return [], []
    return ([c for c, (_, b) in classes.items() if b == c],
            [c for c, (f, _) in classes.items() if f == c])


def cover_search(reach, cands, cap: int, conflict=None, barred=0):
    """The first set of at most ``cap`` candidate arcs (vertex pairs) that
    makes the digraph with the closure ``reach`` strongly connected, as
    candidate indices in the order they were chosen, or None; and the
    number of search nodes it took.

    Covering branch (Eswaran & Tarjan, SIAM J. Comput. 1976): a graph that
    is not strong needs an arc entering each source class and one leaving
    each sink, and one arc serves at most one of each, so a node with more
    terminal sides on one side than the room it has left fails.
    Otherwise it branches, in index order, over the candidates that fix
    the terminal side the fewest of them fix, among those not in the mask
    ``barred``.  A child extends its parent's closure by its arc
    (``add_arc``) and also bars ``conflict[i]``, the mask of the
    candidates that may not join its arc ``i`` (none when ``conflict`` is
    None), and a candidate an earlier sibling tried is barred below the
    later ones: every set holding it was searched there.  So every set of
    at most ``cap`` unbarred, pairwise conflict-free arcs that makes the
    graph strong is reached; with the cap raised from a floor, the first
    cap that succeeds is the minimum."""
    heads = [0] * len(reach[0])
    tails = heads[:]
    for i, (u, v) in enumerate(cands):
        tails[u] |= 1 << i
        heads[v] |= 1 << i
    chosen: list[int] = []
    nodes = 0

    def fixing(side: int, inner: list[int], outer: list[int], barred: int):
        # the unbarred candidates with their ``inner`` end in ``side`` and
        # their other end outside it: a source is entered, a sink left
        into, out = 0, barred
        for w in _bits(side):
            into |= inner[w]
            out |= outer[w]
        return into & ~out

    def search(fwd, bwd, room: int, barred: int) -> bool:
        nonlocal nodes
        nodes += 1
        sources, sinks = sides(fwd, bwd)
        if not sources or max(len(sources), len(sinks)) > room:
            return not sources
        for i in _bits(min([fixing(s, heads, tails, barred) for s in sources]
                           + [fixing(s, tails, heads, barred) for s in sinks],
                           key=int.bit_count)):
            chosen.append(i)
            if search(*add_arc(fwd, bwd, *cands[i]), room - 1,
                      barred if conflict is None else barred | conflict[i]):
                return True
            chosen.pop()
            barred |= 1 << i
        return False

    return (chosen if search(*reach, cap, barred) else None), nodes


@pg.derived
def scc(D: pg.PlaneDigraph) -> SccPartition:
    """Strong components, the closure of their DAG (``closure``, over
    component ids) and its source and sink components, which a graph with
    one component lacks."""
    comp = scc_of_arcs(D.n, D.arcs)
    members: list[list[int]] = [[] for _ in range(max(comp, default=-1) + 1)]
    for v, c in enumerate(comp):
        members[c].append(v)
    # Tarjan's ids already number the component DAG sinks first
    reach = closure(len(members), {(comp[u], comp[v]) for u, v in D.arcs
                                   if comp[u] != comp[v]}, range(len(members)))
    sources, sinks = sides(*reach)
    return SccPartition(
        component=tuple(comp),
        members=tuple(tuple(ms) for ms in members),
        reach=reach,
        sources=tuple(m.bit_length() - 1 for m in sources),
        sinks=tuple(m.bit_length() - 1 for m in sinks),
    )


def is_strong(D: pg.PlaneDigraph) -> bool:
    return scc(D).count <= 1


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
