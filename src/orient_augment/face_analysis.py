"""Per-face boundary decomposition and face classification.

The unit of analysis is the boundary *position* (labelled vertex), never
the vertex itself: on graphs that are not 3-connected the same vertex can
occur several times around one face, possibly as a local source at one
occurrence and a local sink at another.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import plane_graph as pg
from .errors import CensusMismatch
from .strongconn import scc

STRONG_INTERVAL = "strong"
LOCAL_SOURCE = "source"
LOCAL_SINK = "sink"
INTERVAL_DIPATH = "dipath"

CLASS_STRONG = "Strong"
CLASS_SIMPLE = "Simple"
CLASS_ALTERNATING = "Alternating"


@dataclass(frozen=True)
class Interval:
    """A contiguous run of boundary positions of one face."""

    face: int
    kind: str
    positions: tuple[int, ...]

    @property
    def start(self) -> int:
        return self.positions[0]

    @property
    def end(self) -> int:
        return self.positions[-1]

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class FaceClass:
    face: int
    kind: str
    local_terminals: int


@dataclass(frozen=True)
class FaceDecomposition:
    face: int
    strong_intervals: tuple[Interval, ...]
    terminals: tuple[Interval, ...]      # alternating sources/sinks, in order
    dipaths: tuple[Interval, ...]

    @property
    def local_terminal_count(self) -> int:
        return len(self.terminals)

    @property
    def sources(self) -> tuple[Interval, ...]:
        return tuple(t for t in self.terminals if t.kind == LOCAL_SOURCE)

    @property
    def sinks(self) -> tuple[Interval, ...]:
        return tuple(t for t in self.terminals if t.kind == LOCAL_SINK)

    def classify(self) -> FaceClass:
        lt = self.local_terminal_count
        if lt == 0:
            kind = CLASS_STRONG
        elif lt == 2:
            kind = CLASS_SIMPLE
        else:
            kind = CLASS_ALTERNATING
        return FaceClass(face=self.face, kind=kind, local_terminals=lt)

    def intervals(self) -> tuple[Interval, ...]:
        """Local terminals and interval dipaths, in boundary order."""
        both = list(self.terminals) + list(self.dipaths)
        both.sort(key=lambda iv: iv.start)
        return tuple(both)


def runs(walk, ids) -> list[tuple[int, int, str | None]]:
    """The maximal runs of equal component ``ids`` around a face ``walk``,
    in order: per run, its first position ``s``, the position ``e`` after
    its last (``s < e <= s + len(walk)``) and its kind, ``LOCAL_SOURCE``
    when both flanking boundary arcs leave it, ``LOCAL_SINK`` when both
    enter it, else None.  ``walk[p]`` is position ``p``'s end of the arc
    after ``p``, which leaves ``p`` iff ``walk[p]`` is a tail dart: so the
    flanking arcs agree iff ``walk[s - 1]`` and ``walk[e - 1]`` differ in
    their low bit (never on a face with one run)."""
    r = len(walk)
    starts = [p for p in range(r) if ids[p] != ids[p - 1]] or [0]
    ends = starts[1:] + [starts[0] + r]
    return [(s, e, None if not (walk[s - 1] ^ walk[(e - 1) % r]) & 1
             else LOCAL_SOURCE if walk[s - 1] & 1 else LOCAL_SINK)
            for s, e in zip(starts, ends)]


@pg.derived
def decompose_face(D: pg.PlaneDigraph, face: int) -> FaceDecomposition:
    """Strong intervals, local terminals, and interval dipaths of a face.

    The strong intervals are the ``runs`` of the walk's component ids; the
    positions between two consecutive local terminals form an interval
    dipath.  Each list is in order of first position."""
    comp = scc(D).component
    walk = D.faces[face]
    r = len(walk)
    found = runs(walk, [comp[D.dart_vertex(d)] for d in walk])

    def interval(kind: str, start: int, end: int) -> Interval:
        # positions start..end - 1 around the walk, 0 < end - start <= r
        return Interval(face, kind, tuple(p % r for p in range(start, end)))

    term = [(s, e, kind) for s, e, kind in found if kind]
    # the positions from the end of one terminal to the start of the next
    firsts, ends = [s for s, _, _ in term], [e for _, e, _ in term]
    gaps = zip(ends, firsts[1:] + [s + r for s in firsts[:1]])
    return FaceDecomposition(
        face, tuple(interval(STRONG_INTERVAL, s, e) for s, e, _ in found),
        tuple(interval(kind, s, e) for s, e, kind in term),
        tuple(sorted((interval(INTERVAL_DIPATH, b, e) for b, e in gaps
                      if b < e), key=lambda iv: iv.start)))


@dataclass(frozen=True)
class CensusReport:
    terminal_angles: int
    nonlocal_angles: int
    total_angles: int
    classes: dict

    def table(self) -> str:
        lines = ["face  class        local-terminals"]
        for f in sorted(self.classes):
            fc = self.classes[f]
            lines.append(f"{f:>4}  {fc.kind:<11}  {fc.local_terminals}")
        lines.append(
            f"census: terminal {self.terminal_angles} + nonlocal "
            f"{self.nonlocal_angles} = {self.total_angles}"
        )
        return "\n".join(lines)


def classify_all(D: pg.PlaneDigraph) -> tuple[dict, CensusReport]:
    """Classify every face and cross-check the angle census.

    Census identity: angles lying in local-terminal intervals plus, per
    vertex, angles outside any local terminal, together count every angle
    exactly once, i.e. sum to ``2 * m``.
    """
    classes = {}
    terminal_angle_count = 0
    terminal_darts: set[int] = set()
    for f in range(D.f):
        dec = decompose_face(D, f)
        classes[f] = dec.classify()
        if classes[f].local_terminals % 2 != 0:
            raise CensusMismatch(
                f"face {f} has odd local-terminal count"
            )
        for t in dec.terminals:
            terminal_angle_count += len(t.positions)
            for p in t.positions:
                terminal_darts.add(D.faces[f][p])
    # independent pass: walk rotations, count angles outside terminals
    nonlocal_count = 0
    for v in range(D.n):
        for d in D.rotation[v]:
            if d not in terminal_darts:
                nonlocal_count += 1
    total = 2 * D.m
    if terminal_angle_count + nonlocal_count != total:
        raise CensusMismatch(
            f"angle census {terminal_angle_count}+{nonlocal_count} != {total}"
        )
    report = CensusReport(
        terminal_angles=terminal_angle_count,
        nonlocal_angles=nonlocal_count,
        total_angles=total,
        classes=classes,
    )
    return classes, report


@pg.derived
def open_faces(D: pg.PlaneDigraph) -> list[int]:
    """The faces holding a dart of an arc between two strong components, in
    id order.  Only these can have local terminals: the boundary of any
    other face lies in one component, so its component ids form one run."""
    comp = scc(D).component
    return sorted({
        D.face_of_dart(d)
        for a, (u, v) in enumerate(D.arcs) if comp[u] != comp[v]
        for d in (2 * a, 2 * a + 1)
    })


@pg.derived
def alternating_faces(D: pg.PlaneDigraph) -> list[int]:
    return [f for f in open_faces(D)
            if decompose_face(D, f).local_terminal_count >= 4]


@pg.derived
def simple_faces(D: pg.PlaneDigraph) -> list[int]:
    return [f for f in open_faces(D)
            if decompose_face(D, f).local_terminal_count == 2]


def alternating_terminal_sum(D: pg.PlaneDigraph) -> int:
    return sum(decompose_face(D, f).local_terminal_count
               for f in alternating_faces(D))
