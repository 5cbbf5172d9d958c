"""The legal-arc table and the enumeration of supported completions.

``legal_arcs`` lists once per graph and mode the arcs a minimum solution
may use, as rows ``((tail dart, head dart), (u, v))``, with the component
pair of each row and a mask per row of the rows that conflict with it.
The covering search of the solvers reads it, and so does
``supported_sets``, which lists the supported completions of one face as
masks over the rows; the simple faces' candidate lists, which the
Monte-Carlo mode samples, are their maximal ones.
"""

from __future__ import annotations

from typing import Optional

from . import face_analysis as fa
from . import plane_graph as pg
from . import supports as sp
from .errors import NotSimpleFace
from .strongconn import scc


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
# legal arcs and supported completions
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


@pg.derived
def legal_arcs(D: pg.PlaneDigraph, mode: str) -> tuple[list, list, list[int]]:
    """The arcs a minimum solution in ``mode`` may draw from, as rows (one
    ``((tail dart, head dart), (u, v))`` per arc), open face by open face
    and row-major over positions; ``ends[x]``, the strong components row
    ``x`` joins, tail first, which the covering search reads; and
    ``conflict[x]``, the mask of the rows that may not share a solution
    with row ``x``.

    An arc joins two positions of one open face, and its tail does not
    already reach its head (in ``scc``'s closure of the component DAG):
    that rules out loops, parallels and arcs inside one strong component,
    none of which a minimum solution holds (dropping one leaves the result
    strong).  In oriented mode no arc of ``D`` joins its ends the other way
    either.  In directed mode both ends are the first position of a
    local-terminal run (``face_analysis.runs`` of the face's component
    ids), where a minimum solution may attach all of its arcs: a run lies
    in one component and is contiguous, so sliding an end along it changes
    no crossing with a chord that ends outside it, and two chords that end
    in one run then share an angle.  Row ``y`` conflicts with ``x`` when it
    joins the same unordered pair of strong components (the pair rule; so
    ``x`` conflicts with itself) or crosses ``x``: it has one end strictly
    on each side of ``x`` in their face."""
    nbr = D.adjacency()[1] if mode == pg.MODE_ORIENTED else [0] * D.n
    part = scc(D)
    comp, reached = part.component, part.reach[0]
    rows: list[tuple] = []
    conflict: list[int] = []
    for f in fa.open_faces(D):
        walk = D.faces[f]
        r = len(walk)
        verts = list(map(D.dart_vertex, walk))
        ids = [comp[v] for v in verts]
        sites = range(r) if mode == pg.MODE_ORIENTED else [
            s for s, _, kind in fa.runs(walk, ids) if kind]
        at = [0] * r                            # position -> rows ending there
        chords = []
        for i in sites:
            u, ahead = verts[i], reached[ids[i]]
            for j in sites:
                if not (ahead >> ids[j] | nbr[u] >> verts[j]) & 1:
                    at[i] |= 1 << len(rows)
                    at[j] |= 1 << len(rows)
                    rows.append(((walk[i], walk[j]), (u, verts[j])))
                    chords.append((i, j))
        for i, j in chords:
            inside = outside = 0
            for t in range(1, (j - i) % r):
                inside |= at[(i + t) % r]
            for t in range(1, (i - j) % r):
                outside |= at[(j + t) % r]
            conflict.append(inside & outside)
    ends = [(comp[u], comp[v]) for _, (u, v) in rows]
    pair = [frozenset(e) for e in ends]
    same: dict[frozenset, int] = {}
    for x, p in enumerate(pair):
        same[p] = same.get(p, 0) | 1 << x
    return rows, ends, [c | same[p] for c, p in zip(conflict, pair)]


def supported_sets(D: pg.PlaneDigraph, face: int, budget: int) -> list[int]:
    """The nonempty supported completions of the face with at most
    ``budget`` arcs that a minimum solution could restrict to, as masks
    over the rows of ``legal_arcs(D, "oriented")``, depth first in row
    order: sets of the face's rows that end in the support pools of its
    intervals and hold no two conflicting rows."""
    rows, _, conflict = legal_arcs(D, pg.MODE_ORIENTED)
    pos = D._dart_pos
    mine = [x for x, (darts, _) in enumerate(rows)
            if D.face_of_dart(darts[0]) == face]
    ivs = fa.decompose_face(D, face).intervals() if mine and budget > 0 else ()
    if not ivs:
        return []
    pool = set().union(*(sp.support_pool(D, iv, 2 * budget) for iv in ivs))
    spans = [(iv, sum(1 << p for p in iv.positions)) for iv in ivs]
    memo = {0: True}            # endpoint positions on one interval
    out: list[int] = []

    def rec(free: int, room: int, mask: int, at: int) -> None:
        # at: the positions the chosen arcs end at
        while free:
            low = free & -free
            free ^= low
            x = low.bit_length() - 1
            here = at | sum(1 << pos[d] for d in rows[x][0])
            for iv, span in spans:
                if (w := here & span) not in memo:
                    memo[w] = sp.is_supported_on_interval(
                        D, iv, [p for p in iv.positions if w >> p & 1])
                if not memo[w]:
                    break
            else:
                out.append(mask | low)
            if room > 1 and free:
                rec(free & ~conflict[x], room - 1, mask | low, here)

    rec(sum(1 << x for x in mine if all(pos[d] in pool for d in rows[x][0])),
        budget, 0, 0)
    return out


# ---------------------------------------------------------------------------
# simple-face candidates
# ---------------------------------------------------------------------------


@pg.derived
def simple_face_sets(D: pg.PlaneDigraph, face: int) -> list[int]:
    """Candidate completions of a simple face, as masks like those of
    ``supported_sets``: the inclusion-maximal supported completions with
    at most three arcs.

    A minimum solution restricted to the face is a supported completion of
    at most three arcs, hence a subset of some member; the covering search
    may use any subset of the member it is handed, so offering
    maximal members loses nothing.  Every member is dominated by no other
    (adding arcs only coarsens the strong-component partition of the
    face-induced subgraph), and each dominates-or-equals every completion
    it covers.  Domination is read off the masks, and the list is kept
    per graph."""
    dec = fa.decompose_face(D, face)
    if dec.local_terminal_count != 2:
        raise NotSimpleFace(
            f"face {face} has {dec.local_terminal_count} local terminals"
        )
    sets = supported_sets(D, face, 3)
    # the proper subsets of every member are exactly the dominated ones
    inside = set()
    for m in sets:
        sub = m
        while sub := (sub - 1) & m:
            inside.add(sub)
    return [m for m in sets if m not in inside]

