"""Enumeration of supported completions.

Three kinds of list: supported completions of one face (the members the
exact covering search draws arcs from), candidate lists for simple faces
(small constant lists), and the digon-allowed variant where completions
attach only to local terminal angles of an acyclic instance; plus the
joint branches over alternating faces that the Monte-Carlo mode walks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional, Sequence

from . import face_analysis as fa
from . import plane_graph as pg
from . import supports as sp
from .errors import NotSimpleFace
from .strongconn import scc


# ---------------------------------------------------------------------------
# polygon triangulations (skeletons of the counting argument)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def triangulations(m: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """All triangulations of a convex polygon on vertices 0..m-1, as sets
    of chords; there are exactly catalan(m - 2) of them."""
    if m < 3:
        return (frozenset(),)

    def rec(points: tuple[int, ...]) -> list[frozenset]:
        if len(points) < 3:
            return [frozenset()]
        if len(points) == 3:
            return [frozenset()]
        out = []
        a, b = points[0], points[1]
        # the boundary edge (a, b) lies in exactly one triangle (a, b, c)
        for i in range(2, len(points)):
            c = points[i]
            left = rec(points[1 : i + 1])
            right = rec((points[0],) + points[i:])
            new_chords = set()
            if i > 2:
                new_chords.add((b, c) if b < c else (c, b))
            if i < len(points) - 1:
                new_chords.add((a, c) if a < c else (c, a))
            for l in left:
                for r in right:
                    out.append(frozenset(l | r | new_chords))
        return out

    return tuple(rec(tuple(range(m))))


def catalan(n: int) -> int:
    """Independent recurrence, used as the counting oracle in tests."""
    c = [1] * (n + 1)
    for i in range(1, n + 1):
        c[i] = sum(c[j] * c[i - 1 - j] for j in range(i))
    return c[n]


# ---------------------------------------------------------------------------
# supported completions (oriented mode)
# ---------------------------------------------------------------------------


def is_supported(
    D: pg.PlaneDigraph, completion: pg.Completion, face: Optional[int] = None
) -> bool:
    """Defining check: on every local terminal and interval dipath of every
    touched face, the endpoint angles fit inside one left plus one right
    support member of the level given by their count."""
    by_face: dict[int, list[int]] = {}
    for arc in completion.arcs:
        by_face.setdefault(arc.face, []).extend(
            [arc.tail.position, arc.head.position]
        )
    for f, endpoint_positions in by_face.items():
        if face is not None and f != face:
            continue
        dec = fa.decompose_face(D, f)
        ivs = dec.intervals()
        if not ivs:
            return False  # endpoints in a strong face are never supported
        for iv in ivs:
            members = set(iv.positions)
            on_iv = [p for p in endpoint_positions if p in members]
            if on_iv and not sp.is_supported_on_interval(D, iv, on_iv):
                return False
    return True


def supported_completions(
    D: pg.PlaneDigraph,
    face: int,
    budget: int,
    minimal_only: bool = False,
    bounded: bool = False,
) -> Iterator[pg.Completion]:
    """Every supported completion of the face with at most ``budget`` arcs,
    the empty one first.  Emitted completions embed crossing-free and keep
    the graph oriented.

    With ``minimal_only``, only completions a minimum solution could
    restrict to: no arc whose head its tail already reaches (reroute via
    the existing dipath), no two arcs between one strong-component pair.
    With ``bounded``, ``budget`` caps a whole solution, not just this
    face: an arc set whose Eswaran-Tarjan floor
    (``SccPartition.solution_floor``) exceeds it is dropped.  Each rule
    rejects every superset of a rejected set, so they prune the recursion
    exactly and the survivors keep their order."""
    yield pg.EMPTY_COMPLETION
    if budget <= 0:
        return
    dec = fa.decompose_face(D, face)
    ivs = dec.intervals()
    if not ivs:
        return
    walk = D.faces[face]
    r = len(walk)
    vert = [D.dart_vertex(d) for d in walk]
    _, nbr = D.adjacency()
    reach = _reachability(D) if minimal_only else None
    cands = []
    for i, u in enumerate(vert):
        # no loop, no arc beside an existing one, and with minimal_only
        # no arc whose head its tail already reaches
        blocked = nbr[u] | 1 << u | (reach[u] if minimal_only else 0)
        for j, v in enumerate(vert):
            if not blocked >> v & 1:
                cands.append((i, j, u, v))
    if not cands:
        return
    pool: set[int] = set()
    for iv in ivs:
        pool |= sp.support_pool(D, iv, 2 * budget)
    # row-major over positions, as sorted(pool) x sorted(pool) was
    cands = [c for c in cands if c[0] in pool and c[1] in pool]
    part = scc(D)
    # a completion holds at most one arc per unordered vertex pair (no
    # parallel or digon); with minimal_only, per strong-component pair
    label: Sequence[int] = part.component if minimal_only else range(D.n)
    pair_of = [frozenset((label[u], label[v])) for (_, _, u, v) in cands]
    used_pairs: set[frozenset[int]] = set()
    iv_of: dict[int, fa.Interval] = {}
    for iv in ivs:
        for p in iv.positions:
            iv_of[p] = iv

    chosen: list[tuple[int, int, int, int]] = []

    def check_supported() -> bool:
        per_iv: dict[tuple, list[int]] = {}
        for (i, j, _, _) in chosen:
            per_iv.setdefault(iv_of[i].positions, []).append(i)
            per_iv.setdefault(iv_of[j].positions, []).append(j)
        for iv in ivs:
            pts = per_iv.get(iv.positions)
            if pts and not sp.is_supported_on_interval(D, iv, pts):
                return False
        return True

    def rec(start: int) -> Iterator[pg.Completion]:
        for idx in range(start, len(cands)):
            i, j, _, _ = cands[idx]
            pair = pair_of[idx]
            if pair in used_pairs or any(
                pg.chords_cross(r, i, j, i2, j2) for (i2, j2, _, _) in chosen
            ):
                continue
            chosen.append(cands[idx])
            if bounded and part.solution_floor(
                [(u, v) for (_, _, u, v) in chosen]
            ) > budget:
                chosen.pop()
                continue
            used_pairs.add(pair)
            if check_supported():
                yield D.completion_from_darts(
                    [(walk[a], walk[b]) for (a, b, _, _) in chosen]
                )
            if len(chosen) < budget:
                yield from rec(idx + 1)
            chosen.pop()
            used_pairs.discard(pair)

    yield from rec(0)


# ---------------------------------------------------------------------------
# simple-face candidates
# ---------------------------------------------------------------------------


def simple_face_candidates(
    D: pg.PlaneDigraph, face: int
) -> list[pg.Completion]:
    """Candidate completions of a simple face: the inclusion-maximal
    supported completions with at most three arcs.

    A minimum solution restricted to the face is a supported completion of
    at most three arcs, hence a subset of some member; the candidate-arc
    reduction may use any subset of the member it is handed, so offering
    maximal members loses nothing.  Every member is dominated by no other
    (adding arcs only coarsens the strong-component partition of the
    face-induced subgraph), and each dominates-or-equals every completion
    it covers."""
    dec = fa.decompose_face(D, face)
    if dec.local_terminal_count != 2:
        raise NotSimpleFace(
            f"face {face} has {dec.local_terminal_count} local terminals"
        )
    key = ("simple_cands", face)
    cached = D._analysis_cache.get(key)
    if cached is not None:
        return cached
    supported = supported_completions(D, face, 3, minimal_only=True)
    all_supported = list(supported)[1:]  # less the empty one, yielded first
    keys = [c.key() for c in all_supported]
    # the proper subsets of every member (at most 3 arcs: 6 each) are
    # exactly the dominated ones
    inside = {frozenset(s) for k in keys for r in range(1, len(k))
              for s in combinations(k, r)}
    out = [c for c, k in zip(all_supported, keys) if k not in inside]
    D._analysis_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# joint branching over alternating faces
# ---------------------------------------------------------------------------


def alternating_branches(
    D: pg.PlaneDigraph, k: int, minimal_only: bool = False
) -> Iterator[tuple[pg.Completion, ...]]:
    """Every way to pick one supported completion per alternating face, at
    most ``k`` arcs in total, pairwise compatible (no digon or parallel
    across faces).  With ``minimal_only`` the branches are pruned to those
    a minimum solution of at most ``k`` arcs could restrict to, which
    loses no such solution: per face by the rules of
    ``supported_completions(minimal_only=True, bounded=True)``, and
    jointly by one arc per strong-component pair and the Eswaran-Tarjan
    floor of the joint arc set."""
    faces = fa.alternating_faces(D)
    per_face = [
        list(supported_completions(
            D, f, k, minimal_only=minimal_only, bounded=minimal_only
        ))
        for f in faces
    ]
    part = scc(D)
    comp_of = part.component
    chosen: list[pg.Completion] = []
    ends: list[tuple[int, int]] = []

    def legal(cand: pg.Completion) -> bool:
        pairs = set(ends)
        comp_pairs = set()
        for u, v in ends:
            cu, cv = comp_of[u], comp_of[v]
            comp_pairs.add((cu, cv) if cu <= cv else (cv, cu))
        for a in cand.arcs:
            u, v = a.ends
            if (u, v) in pairs or (v, u) in pairs:
                return False
            if minimal_only:
                cu, cv = comp_of[u], comp_of[v]
                if ((cu, cv) if cu <= cv else (cv, cu)) in comp_pairs:
                    return False
        return True

    def rec(i: int, budget: int) -> Iterator[tuple[pg.Completion, ...]]:
        # with minimal_only, a choice whose Eswaran-Tarjan floor exceeds k
        # is dropped, and with it every extension of it
        if minimal_only and part.solution_floor(ends) > k:
            return
        if i == len(per_face):
            yield tuple(chosen)
            return
        for comp in per_face[i]:
            if len(comp) > budget:
                continue
            if comp.arcs and not legal(comp):
                continue
            chosen.append(comp)
            ends.extend(a.ends for a in comp.arcs)
            yield from rec(i + 1, budget - len(comp))
            chosen.pop()
            del ends[len(ends) - len(comp.arcs):]

    yield from rec(0, k)


# ---------------------------------------------------------------------------
# digon-allowed variant: completions on local terminals of acyclic faces
# ---------------------------------------------------------------------------


def _reachability(D: pg.PlaneDigraph) -> list[int]:
    """Bitmask of the vertices each vertex reaches, itself included, in one
    pass over the condensation: component ids are numbered sinks first, so
    every successor of a component is final before the component is."""
    cached = D._analysis_cache.get("reach")
    if cached is not None:
        return cached
    part = scc(D)
    creach = [sum(1 << v for v in ms) for ms in part.members]
    succ: list[list[int]] = [[] for _ in creach]
    for cu, cv in part.comp_arcs:
        succ[cu].append(cv)
    for c, targets in enumerate(succ):
        for t in targets:
            creach[c] |= creach[t]
    reach = [creach[c] for c in part.component]
    D._analysis_cache["reach"] = reach
    return reach


def directed_supported_completions(
    D: pg.PlaneDigraph, face: int, budget: int, bounded: bool = False
) -> list[pg.Completion]:
    """Completions of an acyclic-mode face attaching only to local terminal
    angles: non-crossing arc sets, digons with existing arcs allowed,
    parallels excluded, and arcs whose head is already reachable from their
    tail dropped (a minimum solution never contains one).  With
    ``bounded``, ``budget`` caps a whole solution and arc sets whose
    Eswaran-Tarjan floor exceeds it are pruned with their supersets, as in
    ``supported_completions``.

    A face with two local terminals admits exactly one non-empty such
    completion: the arc from its sink angle to its source angle.
    """
    dec = fa.decompose_face(D, face)
    positions = sorted(p for t in dec.terminals for p in t.positions)
    walk = D.faces[face]
    r = len(walk)
    reach = _reachability(D)
    part = scc(D)
    cands = []
    for i in positions:
        for j in positions:
            if i == j:
                continue
            u = D.dart_vertex(walk[i])
            v = D.dart_vertex(walk[j])
            if u == v or D.has_arc(u, v):
                continue
            if (reach[u] >> v) & 1:
                continue  # redundant: v already reachable from u
            cands.append((i, j, u, v))

    out: list[pg.Completion] = [pg.EMPTY_COMPLETION]
    chosen: list[tuple[int, int, int, int]] = []

    def rec(start: int) -> None:
        for idx in range(start, len(cands)):
            i, j, u, v = cands[idx]
            ok = True
            for (i2, j2, u2, v2) in chosen:
                if pg.chords_cross(r, i, j, i2, j2):
                    ok = False
                    break
                if (u, v) == (u2, v2):
                    ok = False
                    break
            if not ok:
                continue
            chosen.append(cands[idx])
            if bounded and part.solution_floor(
                [(x, y) for (_, _, x, y) in chosen]
            ) > budget:
                chosen.pop()
                continue
            out.append(D.completion_from_darts(
                [(walk[a], walk[b]) for (a, b, _, _) in chosen]
            ))
            if len(chosen) < budget:
                rec(idx + 1)
            chosen.pop()

    if budget > 0:
        rec(0)
    return out
