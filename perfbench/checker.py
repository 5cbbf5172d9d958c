"""Checks on answers made without the solvers' code.

Everything here reads only the host's arc list and face walks (dart
sequences, dart ``d`` is an end of arc ``d >> 1``, the tail when ``d`` is
even) and a witness given as (face, tail position, head position) triples.
Strong components, crossings and the lower bound are computed afresh.
"""

from __future__ import annotations


def _reach(n: int, adj: list[list[int]], start: int) -> list[bool]:
    seen = [False] * n
    seen[start] = True
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return seen


def connected(n: int, arcs) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        adj[u].append(v)
        adj[v].append(u)
    return n <= 1 or all(_reach(n, adj, 0))


def components(n: int, arcs) -> list[int]:
    """Strong component id per vertex (Kosaraju, iterative)."""
    out: list[list[int]] = [[] for _ in range(n)]
    back: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
        back[v].append(u)
    seen = [False] * n
    finish: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(out[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(out[w])))
                    break
            else:
                stack.pop()
                finish.append(v)
    comp = [-1] * n
    count = 0
    for root in reversed(finish):
        if comp[root] != -1:
            continue
        comp[root] = count
        stack = [root]
        while stack:
            for w in back[stack.pop()]:
                if comp[w] == -1:
                    comp[w] = count
                    stack.append(w)
        count += 1
    return comp


def is_strong(n: int, arcs) -> bool:
    return max(components(n, arcs), default=0) == 0


def eswaran_tarjan_bound(n: int, arcs) -> int:
    """max(#source, #sink strong components), 0 when already strong: no
    augmentation has fewer arcs (Eswaran & Tarjan 1976)."""
    comp = components(n, arcs)
    count = max(comp, default=-1) + 1
    if count <= 1:
        return 0
    has_in = [False] * count
    has_out = [False] * count
    for u, v in arcs:
        if comp[u] != comp[v]:
            has_out[comp[u]] = True
            has_in[comp[v]] = True
    return max(has_in.count(False), has_out.count(False))


def _vertex(arcs, dart: int) -> int:
    return arcs[dart >> 1][dart & 1]


def open_face_lengths(D) -> list[int]:
    """Lengths of the faces whose boundary meets several strong
    components."""
    comp = components(D.n, D.arcs)
    return [
        len(walk) for walk in D.faces
        if len({comp[_vertex(D.arcs, d)] for d in walk}) > 1
    ]


def _chords_cross(r: int, a: int, b: int, c: int, d: int) -> bool:
    """Chords (a, b) and (c, d) of an r-cycle interleave strictly; chords
    meeting at a position nest there and do not cross."""
    if len({a, b, c, d}) < 4:
        return False
    span = (b - a) % r
    inside = lambda x: 0 < (x - a) % r < span
    return inside(c) != inside(d)


def check_witness(D, triples, oriented: bool) -> str:
    """'' when the arcs ``triples`` = [(face, tail pos, head pos), ...]
    embed legally in the host ``D`` and make it strong, else the reason."""
    arcs = list(D.arcs)
    ordered = set(arcs)
    unordered = {frozenset(a) for a in arcs}
    by_face: dict[int, list[tuple[int, int]]] = {}
    for face, pt, ph in triples:
        if not 0 <= face < len(D.faces):
            return f"no face {face}"
        walk = D.faces[face]
        if not (0 <= pt < len(walk) and 0 <= ph < len(walk)):
            return f"position out of face {face}"
        u, v = _vertex(D.arcs, walk[pt]), _vertex(D.arcs, walk[ph])
        if u == v:
            return f"loop at {u}"
        if (u, v) in ordered:
            return f"parallel arc {u}->{v}"
        if oriented and frozenset((u, v)) in unordered:
            return f"digon {u}<->{v}"
        for qt, qh in by_face.get(face, []):
            if _chords_cross(len(walk), pt, ph, qt, qh):
                return f"crossing arcs in face {face}"
        by_face.setdefault(face, []).append((pt, ph))
        ordered.add((u, v))
        unordered.add(frozenset((u, v)))
        arcs.append((u, v))
    if not is_strong(D.n, arcs):
        return "not strong"
    return ""


def witness_triples(completion) -> list[tuple[int, int, int]]:
    return [(a.face, a.tail.position, a.head.position) for a in completion.arcs]
