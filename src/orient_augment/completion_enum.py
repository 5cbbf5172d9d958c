"""Enumeration of supported completions.

Three consumers: branching over alternating faces (joint streams with a
shared budget), candidate generation for simple faces (small constant
lists), and the digon-allowed variant where completions attach only to
local terminal angles of an acyclic instance.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional, Sequence

from . import face_analysis as fa
from . import plane_graph as pg
from . import supports as sp
from .errors import NotSimpleFace
from .strongconn import scc, scc_of_arcs


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
    D: pg.PlaneDigraph, face: int, budget: int, minimal_only: bool = False
) -> Iterator[pg.Completion]:
    """Every supported completion of the face with at most ``budget`` arcs,
    the empty one first.  Emitted completions embed crossing-free and keep
    the graph oriented.

    With ``minimal_only``, only completions a minimum solution could
    restrict to: no arc whose head its tail already reaches (reroute via
    the existing dipath), no two arcs between one strong-component pair.
    Both rules reject every superset of a rejected set, so they prune the
    recursion exactly and the survivors keep their order."""
    yield pg.EMPTY_COMPLETION
    if budget <= 0:
        return
    dec = fa.decompose_face(D, face)
    ivs = dec.intervals()
    if not ivs:
        return
    pool: set[int] = set()
    for iv in ivs:
        pool |= sp.support_pool(D, iv, 2 * budget)
    walk = D.faces[face]
    r = len(walk)
    cands = []
    for i in sorted(pool):
        for j in sorted(pool):
            if i == j:
                continue
            u = D.dart_vertex(walk[i])
            v = D.dart_vertex(walk[j])
            if u == v or D.underlying_adjacent(u, v):
                continue
            cands.append((i, j, u, v))
    # a completion holds at most one arc per unordered vertex pair (no
    # parallel or digon); with minimal_only, per strong-component pair
    label: Sequence[int] = range(D.n)
    if minimal_only:
        label = scc(D).component
        reach = _reachability(D)
        cands = [c for c in cands if not (reach[c[2]] >> c[3]) & 1]
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


def _local_partition(D: pg.PlaneDigraph, face: int, extra: tuple = ()) -> tuple:
    """Canonical strong-component partition of the subgraph induced by the
    face's vertex set, optionally with extra arcs added."""
    verts = sorted(set(D.face_vertices(face)))
    idx = {v: i for i, v in enumerate(verts)}
    arcs = [
        (idx[u], idx[v]) for (u, v) in D.arcs if u in idx and v in idx
    ]
    arcs += [(idx[u], idx[v]) for (u, v) in extra]
    comp = scc_of_arcs(len(verts), arcs)
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(comp):
        groups.setdefault(c, []).append(verts[i])
    return tuple(sorted(tuple(g) for g in groups.values()))


def _refines(finer: tuple, coarser: tuple) -> bool:
    block_of = {v: i for i, blk in enumerate(coarser) for v in blk}
    return all(len({block_of[v] for v in blk}) == 1 for blk in finer)


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
    all_supported = [
        c for c in supported_completions(D, face, 3, minimal_only=True) if c.arcs
    ]
    keys = [c.key() for c in all_supported]
    out = []
    for i, c in enumerate(all_supported):
        if any(j != i and keys[i] < keys[j] for j in range(len(all_supported))):
            continue
        out.append(c)
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
    across faces).  With ``minimal_only`` the per-face lists are pruned to
    completions a minimum solution could restrict to, which loses no
    optimum."""
    faces = fa.alternating_faces(D)
    per_face = [
        list(supported_completions(D, f, k, minimal_only=minimal_only))
        for f in faces
    ]
    comp_of = scc(D).component
    chosen: list[pg.Completion] = []

    def legal(cand: pg.Completion) -> bool:
        pairs = set()
        comp_pairs = set()
        for c in chosen:
            for a in c.arcs:
                u, v = a.ends
                pairs.add((u, v))
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
        if i == len(faces):
            yield tuple(chosen)
            return
        for comp in per_face[i]:
            if len(comp) > budget:
                continue
            if comp.arcs and not legal(comp):
                continue
            chosen.append(comp)
            yield from rec(i + 1, budget - len(comp))
            chosen.pop()

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
    D: pg.PlaneDigraph, face: int, budget: int
) -> list[pg.Completion]:
    """Completions of an acyclic-mode face attaching only to local terminal
    angles: non-crossing arc sets, digons with existing arcs allowed,
    parallels excluded, and arcs whose head is already reachable from their
    tail dropped (a minimum solution never contains one).

    A face with two local terminals admits exactly one non-empty such
    completion: the arc from its sink angle to its source angle.
    """
    dec = fa.decompose_face(D, face)
    positions = sorted(p for t in dec.terminals for p in t.positions)
    walk = D.faces[face]
    r = len(walk)
    reach = _reachability(D)
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
    seen: set[frozenset] = set()

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
            comp = D.completion_from_darts(
                [(walk[a], walk[b]) for (a, b, _, _) in chosen]
            )
            key = comp.key()
            if key not in seen:
                seen.add(key)
                out.append(comp)
            if len(chosen) < budget:
                rec(idx + 1)
            chosen.pop()

    if budget > 0:
        rec(0)
    return out


def directed_joint_branches(
    D: pg.PlaneDigraph, faces: list[int], k: int
) -> Iterator[tuple[pg.Completion, ...]]:
    """Joint choice of a digon-allowed completion per face, total size at
    most ``k``, pairwise parallel-free."""
    per_face = [directed_supported_completions(D, f, k) for f in faces]
    chosen: list[pg.Completion] = []

    def legal(cand: pg.Completion) -> bool:
        pairs = set()
        for c in chosen:
            for a in c.arcs:
                pairs.add(a.ends)
        return all(a.ends not in pairs for a in cand.arcs)

    def rec(i: int, budget: int) -> Iterator[tuple[pg.Completion, ...]]:
        if i == len(faces):
            yield tuple(chosen)
            return
        for comp in per_face[i]:
            if len(comp) > budget:
                continue
            if comp.arcs and not legal(comp):
                continue
            chosen.append(comp)
            yield from rec(i + 1, budget - len(comp))
            chosen.pop()

    yield from rec(0, k)
