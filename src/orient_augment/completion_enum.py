"""Enumeration of supported completions.

Two kinds of list: the supported completions of one face, and the
candidate lists of simple faces (small lists, from which the Monte-Carlo
mode samples one member per trial).  Both come from one kernel,
``_noncrossing``: a depth-first walk over bitmasks of candidate arcs that
hands back each set as a row, one ``((tail dart, head dart), (u, v))`` per
arc, which the covering search reads.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Hashable, Optional, Sequence

from . import face_analysis as fa
from . import plane_graph as pg
from . import supports as sp
from .errors import NotSimpleFace
from .strongconn import reach, scc


# ---------------------------------------------------------------------------
# polygon triangulations (skeletons of the counting argument)
# ---------------------------------------------------------------------------


def triangulations(m: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """All triangulations of a convex polygon on vertices 0..m-1, as sets
    of chords; there are exactly catalan(m - 2) of them."""

    def rec(points: tuple[int, ...]) -> list[frozenset]:
        if len(points) <= 3:
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
        ivs = fa.decompose_face(D, f).intervals()
        if not ivs:
            return False  # endpoints in a strong face are never supported
        for iv in ivs:
            members = set(iv.positions)
            on_iv = [p for p in endpoint_positions if p in members]
            if on_iv and not sp.is_supported_on_interval(D, iv, on_iv):
                return False
    return True


def supported_rows(D: pg.PlaneDigraph, face: int, budget: int) -> list[tuple]:
    """The supported completions of the face with at most ``budget`` arcs
    that a minimum solution could restrict to, as rows, the empty one
    first: no arc whose head its tail already reaches (reroute via the
    existing dipath), no two arcs between one strong-component pair.
    Emitted completions embed crossing-free and keep the graph oriented."""
    if budget <= 0:
        return [()]
    walk = D.faces[face]
    vert = [D.dart_vertex(d) for d in walk]
    _, nbr = D.adjacency()
    reached = reach(D)
    cands = []
    for i, u in enumerate(vert):
        # no loop, no arc beside an existing one, no arc whose head its
        # tail already reaches
        blocked = nbr[u] | 1 << u | reached[u]
        for j, v in enumerate(vert):
            if not blocked >> v & 1:
                cands.append((i, j, u, v))
    if not cands:
        return [()]
    ivs = fa.decompose_face(D, face).intervals()
    if not ivs:
        return [()]
    pool: set[int] = set()
    for iv in ivs:
        pool |= sp.support_pool(D, iv, 2 * budget)
    # row-major over positions, as sorted(pool) x sorted(pool) was
    cands = [c for c in cands if c[0] in pool and c[1] in pool]
    # a completion holds at most one arc per strong-component pair, so no
    # parallel or digon either
    label = scc(D).component
    iv_at = {p: t for t, iv in enumerate(ivs) for p in iv.positions}
    memo: dict[int, bool] = {}      # endpoint positions on one interval

    def supported(chosen: list[int]) -> bool:
        on: dict[int, int] = {}     # interval index -> endpoint positions
        for x in chosen:
            for p in cands[x][:2]:
                on[iv_at[p]] = on.get(iv_at[p], 0) | 1 << p
        for t, w in on.items():
            if w not in memo:
                memo[w] = sp.is_supported_on_interval(
                    D, ivs[t], [p for p in ivs[t].positions if w >> p & 1])
            if not memo[w]:
                return False
        return True

    pairs = [frozenset((label[u], label[v])) for _, _, u, v in cands]
    return [(), *_noncrossing(walk, cands, pairs, budget, supported)]


def _noncrossing(
    walk: tuple[int, ...],
    cands: list[tuple[int, int, int, int]],
    pair: Sequence[Hashable],
    budget: int,
    accept: Callable[[list[int]], bool],
) -> list[tuple]:
    """The enumeration kernel: the sets of at most ``budget`` candidate
    arcs (positions i, j on the face ``walk``, vertices u, v) that cross
    nowhere and hold at most one arc per pair id ``pair[x]``, depth first
    in candidate order, that ``accept`` takes (it sees rising candidate
    indices), as rows in candidate order.

    A node's children are one bitmask: the later candidates no chosen one
    excludes.  A chord excludes those with one end strictly on each side of
    it, read off per-position candidate masks, and those of its pair id."""
    r = len(walk)
    row = [((walk[i], walk[j]), (u, v)) for i, j, u, v in cands]
    same: dict[Hashable, int] = {}
    at = [0] * r                                # position -> arcs ending there
    for x, (i, j, _, _) in enumerate(cands):
        same[pair[x]] = same.get(pair[x], 0) | 1 << x
        at[i] |= 1 << x
        at[j] |= 1 << x
    excluded: list[Optional[int]] = [None] * len(cands)
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def rec(free: int, room: int) -> None:
        while free:
            low = free & -free
            free ^= low
            x = low.bit_length() - 1
            chosen.append(x)
            if accept(chosen):
                out.append(tuple(map(row.__getitem__, chosen)))
            if room > 1 and free:
                i, j, _, _ = cands[x]
                if excluded[x] is None:
                    inside = outside = 0
                    for t in range(1, (j - i) % r):
                        inside |= at[(i + t) % r]
                    for t in range(1, (i - j) % r):
                        outside |= at[(j + t) % r]
                    excluded[x] = inside & outside | same[pair[x]]
                rec(free & ~excluded[x], room - 1)
            chosen.pop()

    rec((1 << len(cands)) - 1, budget)
    return out


# ---------------------------------------------------------------------------
# simple-face candidates
# ---------------------------------------------------------------------------


@pg.derived
def simple_face_rows(D: pg.PlaneDigraph, face: int) -> list[tuple]:
    """Candidate completions of a simple face, as rows: the
    inclusion-maximal supported completions with at most three arcs.

    A minimum solution restricted to the face is a supported completion of
    at most three arcs, hence a subset of some member; the covering search
    may use any subset of the member it is handed, so offering
    maximal members loses nothing.  Every member is dominated by no other
    (adding arcs only coarsens the strong-component partition of the
    face-induced subgraph), and each dominates-or-equals every completion
    it covers.  Domination is read off the rows, and the list is kept
    per graph."""
    dec = fa.decompose_face(D, face)
    if dec.local_terminal_count != 2:
        raise NotSimpleFace(
            f"face {face} has {dec.local_terminal_count} local terminals"
        )
    rows = supported_rows(D, face, 3)[1:]
    # the proper subsets of every member (at most 3 arcs: 6 each) are
    # exactly the dominated ones; rows in candidate order compare as sets
    inside = {sub for xs in rows for r in range(1, len(xs))
              for sub in combinations(xs, r)}
    return [xs for xs in rows if xs not in inside]
