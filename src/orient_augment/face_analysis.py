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


def _cyclic_runs(values: list[int]) -> list[tuple[int, int]]:
    """Maximal (start, length) runs of equal values on a cyclic list."""
    r = len(values)
    if r == 0:
        return []
    if all(v == values[0] for v in values):
        return [(0, r)]
    # rotate so a run boundary sits at index 0
    s = 0
    while values[s - 1] == values[s]:
        s -= 1
    s %= r
    runs = []
    i = 0
    while i < r:
        j = i
        while j + 1 < r and values[(s + j + 1) % r] == values[(s + i) % r]:
            j += 1
        runs.append(((s + i) % r, j - i + 1))
        i = j + 1
    return runs


def decompose_face(D: pg.PlaneDigraph, face: int) -> FaceDecomposition:
    """Strong intervals, local terminals, and interval dipaths of a face."""
    cache = D._analysis_cache.setdefault("faces", {})
    if face in cache:
        return cache[face]
    comp = scc(D).component
    walk = D.faces[face]
    r = len(walk)
    values = [comp[D.dart_vertex(d)] for d in walk]
    runs = _cyclic_runs(values)

    strong_intervals = []
    terminals = []
    for start, length in runs:
        positions = tuple((start + t) % r for t in range(length))
        iv = Interval(face=face, kind=STRONG_INTERVAL, positions=positions)
        strong_intervals.append(iv)
        if len(runs) == 1:
            continue
        # flanking boundary arcs: preceding arc of first position,
        # following arc of last position
        first, last = positions[0], positions[-1]
        pre_end = pg.twin(walk[first - 1])
        post_end = walk[last]
        pre_out = pg.dart_is_tail(pre_end)
        post_out = pg.dart_is_tail(post_end)
        if pre_out and post_out:
            terminals.append(
                Interval(face=face, kind=LOCAL_SOURCE, positions=positions)
            )
        elif not pre_out and not post_out:
            terminals.append(
                Interval(face=face, kind=LOCAL_SINK, positions=positions)
            )

    terminals.sort(key=lambda iv: iv.start)
    terminal_pos = set()
    for t in terminals:
        terminal_pos.update(t.positions)
    dipaths = []
    if terminals:
        flags = [p in terminal_pos for p in range(r)]
        for start, length in _cyclic_runs([int(b) for b in flags]):
            if flags[start]:
                continue
            positions = tuple((start + t) % r for t in range(length))
            dipaths.append(
                Interval(face=face, kind=INTERVAL_DIPATH, positions=positions)
            )
        dipaths.sort(key=lambda iv: iv.start)

    dec = FaceDecomposition(
        face=face,
        strong_intervals=tuple(sorted(strong_intervals, key=lambda iv: iv.start)),
        terminals=tuple(terminals),
        dipaths=tuple(dipaths),
    )
    cache[face] = dec
    return dec


def strong_intervals(D: pg.PlaneDigraph, face: int) -> tuple[Interval, ...]:
    return decompose_face(D, face).strong_intervals


def local_terminals(
    D: pg.PlaneDigraph, face: int
) -> tuple[tuple[Interval, ...], tuple[Interval, ...]]:
    dec = decompose_face(D, face)
    return dec.sources, dec.sinks


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


def open_faces(D: pg.PlaneDigraph) -> list[int]:
    """The faces holding a dart of an arc between two strong components, in
    id order.  Only these can have local terminals: the boundary of any
    other face lies in one component, so its component ids form one run."""
    cache = D._analysis_cache
    if "open" not in cache:
        comp = scc(D).component
        cache["open"] = sorted({
            D.face_of_dart(d)
            for a, (u, v) in enumerate(D.arcs) if comp[u] != comp[v]
            for d in (2 * a, 2 * a + 1)
        })
    return cache["open"]


def alternating_faces(D: pg.PlaneDigraph) -> list[int]:
    return [f for f in open_faces(D)
            if decompose_face(D, f).local_terminal_count >= 4]


def simple_faces(D: pg.PlaneDigraph) -> list[int]:
    return [f for f in open_faces(D)
            if decompose_face(D, f).local_terminal_count == 2]


def alternating_terminal_sum(D: pg.PlaneDigraph) -> int:
    return sum(decompose_face(D, f).local_terminal_count
               for f in alternating_faces(D))
