"""Minimum dijoin on auxiliary digraphs.

A dijoin of a digraph is an arc set whose reversals, added alongside the
original arcs, make the digraph strongly connected.  The solver here is
the exact bounded-budget covering branch ``strongconn.cover_search`` on
the graph's closure, with the reversed arcs as candidates: while the
graph is not strong, some terminal class must gain an arc, and only
reversals of arcs crossing its dicut can provide one, so branching over
those arcs is complete.  Budgets stay tiny: the worst case is ``O(m^k)``.

``build_auxiliary`` encodes "find a minimum solution using only these
candidate completion arcs" as a dijoin question: original arcs become
paths too long to reverse within the budget, and each candidate arc gets
a cheap gadget arc whose reversal stands for using the candidate.  This
is the paper's reduction, checked against brute force by acceptance
criterion 8.  No solver builds it: both modes run the same covering
search on the candidate arcs directly (``solvers._cover``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import face_analysis as fa
from . import plane_graph as pg
from .errors import NonGadgetArcInY, NotACandidate, UnknownArc
from .strongconn import closure, cover_search, sides


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
    return sides(*closure(g.n, arcs)) == ([], [])


def min_dijoin_upto(
    g: Digraph,
    k: int,
    reversible: Optional[Sequence[int]] = None,
) -> Optional[list[int]]:
    """A minimum dijoin among subsets of ``reversible`` (all arcs when
    None), provided its size is at most ``k``; None otherwise.

    Deterministic: ``strongconn.cover_search`` runs from one ``closure``
    of ``g`` with cap 0, 1, ..., ``k`` over the reversed arcs in ascending
    arc-id order, and the witness is the first one found at the minimum cap.
    """
    ids = sorted(range(len(g.arcs)) if reversible is None else set(reversible))
    reversed_arcs = [(v, u) for u, v in (g.arcs[a] for a in ids)]
    reach = closure(g.n, g.arcs)
    for b in range(k + 1):
        found, _ = cover_search(reach, reversed_arcs, b)
        if found is not None:
            return [ids[i] for i in found]
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
) -> DijoinInstance:
    """Dijoin instance equivalent to: does ``D`` have a solution of size at
    most ``k`` all of whose arcs come from the allowed candidates?

    Original arcs become paths of k+1 arcs, so their reversal exceeds the
    budget.  Every allowed arc (u, v) of a face gets a gadget vertex ``x``
    with the single cheap arc (x, u), a budget-proof path from the face's
    source vertex ``s`` to ``x``, and one from ``x`` to ``v``.
    """
    g = Digraph(n=D.n)

    def path(u: int, v: int) -> None:  # k + 1 arcs from u to v
        for _ in range(k):
            w = g.add_vertex()
            g.add_arc(u, w)
            u = w
        g.add_arc(u, v)

    for u, v in D.arcs:
        path(u, v)

    reversible: list[int] = []
    back_map: dict[int, pg.CompletionArc] = {}
    for face, comp in sorted(allowed.items()):
        if not comp.arcs:
            continue
        dec = fa.decompose_face(D, face)
        if dec.local_terminal_count == 0:
            continue  # a strong face: its candidates cannot help
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
            path(s, x)
            path(x, v)
    return DijoinInstance(
        graph=g, budget=k, reversible=reversible, back_map=back_map
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
