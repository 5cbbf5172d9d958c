"""Minimum dijoin on auxiliary digraphs.

A dijoin of a digraph is an arc set whose reversals, added alongside the
original arcs, make the digraph strongly connected.  The solver here is an
exact bounded-budget covering branch: while the current graph is not
strong, some terminal component must gain an arc, and only reversals of
arcs crossing its dicut can provide one, so branching over those arcs is
complete.  Budgets stay tiny, which keeps the worst case ``O(m^k)``.

``build_auxiliary`` encodes "find a minimum solution using only these
candidate completion arcs" as a dijoin question: original arcs are priced
out of reach by subdivision, and each candidate arc gets a cheap gadget
arc whose reversal stands for using the candidate.  Of the solvers only
the Monte-Carlo mode uses it, once per sampled candidate assignment; the
exact mode searches the candidate arcs directly (``solvers``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import face_analysis as fa
from . import plane_graph as pg
from .errors import NonGadgetArcInY, NotACandidate, UnknownArc
from .strongconn import terminal_sides


@dataclass
class Digraph:
    """Plain mutable digraph for auxiliary constructions."""

    n: int
    arcs: list[tuple[int, int]] = field(default_factory=list)

    def add_vertex(self) -> int:
        self.n += 1
        return self.n - 1

    def add_arc(self, u: int, v: int) -> int:
        self.arcs.append((u, v))
        return len(self.arcs) - 1


def is_dijoin(g: Digraph, Y: Sequence[int]) -> bool:
    """True iff adding the reversal of every arc of ``Y`` makes ``g``
    strongly connected."""
    for a in Y:
        if not (0 <= a < len(g.arcs)):
            raise UnknownArc(f"arc id {a} out of range")
    arcs = list(g.arcs) + [(v, u) for (u, v) in (g.arcs[a] for a in Y)]
    return terminal_sides(g.n, arcs) == ([], [])


def min_dijoin_upto(
    g: Digraph,
    k: int,
    reversible: Optional[Sequence[int]] = None,
) -> Optional[list[int]]:
    """A minimum dijoin among subsets of ``reversible`` (all arcs when
    None), provided its size is at most ``k``; None otherwise.

    Deterministic: candidates are tried in ascending arc-id order, and the
    witness is the first one found at the minimum depth.
    """
    allowed = (
        set(range(len(g.arcs))) if reversible is None else set(reversible)
    )
    base = list(g.arcs)

    def search(budget: int, chosen: list[int]) -> Optional[list[int]]:
        arcs = base + [(v, u) for (u, v) in (g.arcs[a] for a in chosen)]
        sources, sinks = terminal_sides(g.n, arcs)
        if not sources and not sinks:
            return list(chosen)
        if max(len(sources), len(sinks)) > budget:
            return None
        # branch on the terminal side crossed by the fewest allowed arcs: a
        # source needs an arc leaving it reversed, a sink one entering it
        free = [(a, g.arcs[a]) for a in sorted(allowed.difference(chosen))]
        best_cands: Optional[list[int]] = None
        for side, into in [(s, 0) for s in sources] + [(s, 1) for s in sinks]:
            cands = [
                a for a, ends in free
                if (side >> ends[into]) & 1 and not (side >> ends[1 - into]) & 1
            ]
            if best_cands is None or len(cands) < len(best_cands):
                best_cands = cands
        if not best_cands:
            return None
        for a in best_cands:
            chosen.append(a)
            res = search(budget - 1, chosen)
            if res is not None:
                return res
            chosen.pop()
        return None

    for b in range(0, k + 1):
        res = search(b, [])
        if res is not None:
            return res
    return None


# ---------------------------------------------------------------------------
# the candidate-arc reduction
# ---------------------------------------------------------------------------


@dataclass
class DijoinInstance:
    graph: Digraph
    budget: int
    reversible: list[int]                  # gadget arc ids
    back_map: dict[int, pg.CompletionArc]  # gadget arc id -> candidate arc


def build_auxiliary(
    D: pg.PlaneDigraph,
    allowed: dict[int, pg.Completion],
    k: int,
    subdivision: bool = True,
) -> DijoinInstance:
    """Dijoin instance equivalent to: does ``D`` have a solution of size at
    most ``k`` all of whose arcs come from the allowed candidates?

    Original arcs are (k+1)-subdivided so their reversal exceeds the
    budget.  Every allowed arc (u, v) of a face gets a gadget vertex ``x``
    with the single cheap arc (x, u), a budget-proof path from the face's
    source vertex ``s`` to ``x``, and one from ``x`` to ``v``.

    With ``subdivision=False`` the paths collapse to single arcs; combined
    with the marker-restricted solver this is equivalent (contracting
    degree-one path interiors never changes which marker subsets are
    dijoins) and much smaller, so the branching solvers use it internally.
    """
    return build_auxiliary_with_extra(D, (), allowed, k, subdivision)


def build_auxiliary_with_extra(
    D: pg.PlaneDigraph,
    extra_arcs: Sequence[tuple[int, int]],
    allowed: dict[int, pg.Completion],
    k: int,
    subdivision: bool = True,
) -> DijoinInstance:
    """Same construction over ``D`` plus already-chosen branch arcs, given
    as plain vertex pairs; face structure is read from ``D``, whose simple
    faces the branch does not touch."""
    steps = k if subdivision else 0
    g = Digraph(n=D.n)
    for (u, v) in list(D.arcs) + list(extra_arcs):
        prev = u
        for _ in range(steps):
            w = g.add_vertex()
            g.add_arc(prev, w)
            prev = w
        g.add_arc(prev, v)

    reversible: list[int] = []
    back_map: dict[int, pg.CompletionArc] = {}
    for face, comp in sorted(allowed.items()):
        if not comp.arcs:
            continue
        dec = fa.decompose_face(D, face)
        if dec.local_terminal_count == 0:
            continue  # face became strong; its candidates cannot help
        srcs = dec.sources
        snks = dec.sinks
        if not srcs or not snks:
            continue
        s = D.dart_vertex(D.faces[face][srcs[0].positions[0]])
        for arc in comp.arcs:
            if arc.face != face:
                raise NotACandidate(
                    f"allowed arc {arc} is not embedded in face {face}"
                )
            u, v = arc.ends
            x = g.add_vertex()
            gid = g.add_arc(x, u)
            reversible.append(gid)
            back_map[gid] = arc
            prev = s
            for _ in range(steps):
                w = g.add_vertex()
                g.add_arc(prev, w)
                prev = w
            g.add_arc(prev, x)
            prev = x
            for _ in range(steps):
                w = g.add_vertex()
                g.add_arc(prev, w)
                prev = w
            g.add_arc(prev, v)
    return DijoinInstance(
        graph=g, budget=k, reversible=reversible, back_map=back_map
    )


def solve_auxiliary(instance: DijoinInstance) -> Optional[list[int]]:
    return min_dijoin_upto(
        instance.graph, instance.budget, reversible=instance.reversible
    )


def extract_solution(
    instance: DijoinInstance, Y: Sequence[int]
) -> pg.Completion:
    """Map a dijoin of the auxiliary graph back to completion arcs."""
    arcs = []
    for a in Y:
        if a not in instance.back_map:
            raise NonGadgetArcInY(f"dijoin used non-gadget arc {a}")
        arcs.append(instance.back_map[a])
    return pg.Completion(tuple(arcs))
