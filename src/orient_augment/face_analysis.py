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


@pg.derived
def decompose_face(D: pg.PlaneDigraph, face: int) -> FaceDecomposition:
    """Strong intervals, local terminals, and interval dipaths of a face.

    One pass over the walk's component ids finds where the runs start, and
    each interval's positions are built once.  A run is a local source when
    both flanking boundary arcs leave it and a local sink when both enter
    it; the positions between two consecutive local terminals form an
    interval dipath.  Each list is in order of first position."""
    comp = scc(D).component
    walk = D.faces[face]
    r = len(walk)
    ids = [comp[D.dart_vertex(d)] for d in walk]
    starts = [p for p in range(r) if ids[p] != ids[p - 1]] or [0]
    ends = starts[1:] + [starts[0] + r]

    def interval(kind: str, start: int, end: int) -> Interval:
        # positions start..end - 1 around the walk, 0 < end - start <= r
        if start >= r:
            start, end = start - r, end - r
        positions = (tuple(range(start, end)) if end <= r
                     else tuple(range(start, r)) + tuple(range(end - r)))
        return Interval(face=face, kind=kind, positions=positions)

    runs = [interval(STRONG_INTERVAL, s, e) for s, e in zip(starts, ends)]
    kinds = [None] * len(runs)
    if len(runs) > 1:
        for i, (s, e) in enumerate(zip(starts, ends)):
            # walk[p] is position p's end of the boundary arc after p, so
            # that arc leaves p iff walk[p] is a tail dart
            pre_out = not pg.dart_is_tail(walk[s - 1])
            post_out = pg.dart_is_tail(walk[(e - 1) % r])
            if pre_out == post_out:
                kinds[i] = LOCAL_SOURCE if pre_out else LOCAL_SINK
    term = [i for i, kind in enumerate(kinds) if kind]
    # the positions from the end of one terminal to the start of the next
    gaps = [(ends[i], starts[j] + (r if j <= i else 0))
            for i, j in zip(term, term[1:] + term[:1])]
    dipaths = sorted(
        (interval(INTERVAL_DIPATH, b, e) for b, e in gaps if b < e),
        key=lambda iv: iv.start)
    return FaceDecomposition(
        face, tuple(runs),
        tuple(Interval(face, kinds[i], runs[i].positions) for i in term),
        tuple(dipaths))


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
