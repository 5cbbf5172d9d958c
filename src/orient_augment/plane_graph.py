"""Plane (multi)digraphs as rotation systems.

A graph is stored as dense integer vertex ids, an arc table, and one
clockwise cyclic sequence of incident arc ends per vertex.  Faces are never
input: they are traced from the rotations and cached.  All values are
immutable after construction; editing operations return new graphs.

Arc ends ("darts") are encoded as ints: ``2*a`` is the tail end of arc
``a`` and ``2*a + 1`` its head end.  Face tracing uses the successor rule
``next = rotation_successor(twin(dart))``, which walks each boundary
clockwise.  The angle at a boundary position is identified with the dart of
the arc *following* the position's vertex; the angle occupies the rotation
gap between that dart and its clockwise successor.  New arc ends landing in
an angle are embedded in this gap.

The per-dart tables (rotation successor, face, position on the face's walk)
are flat tuples indexed by dart; as a negative index would wrap, every entry
point taking an outside dart checks ``0 <= dart < 2m`` (else ``StaleAngle``).
``build`` fills the rotation-successor table in the same pass that checks
the rings, and checks the mode and connectivity on flat tables too; the
ordered check loops run only after a check has failed, to name the first
error.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, NoReturn, Optional, Sequence

from .errors import (
    CrossingArcs,
    DuplicateArcEnd,
    ModeViolation,
    NonSphericalEmbedding,
    StaleAngle,
)

MODE_ORIENTED = "oriented"
MODE_DIRECTED = "directed"
MODE_MULTI = "multi"
MODES = (MODE_ORIENTED, MODE_DIRECTED, MODE_MULTI)


def tail_dart(arc: int) -> int:
    return 2 * arc


def head_dart(arc: int) -> int:
    return 2 * arc + 1


def dart_is_tail(dart: int) -> bool:
    return (dart & 1) == 0


def twin(dart: int) -> int:
    return dart ^ 1


@dataclass(frozen=True)
class Angle:
    """One occurrence of a vertex on a face boundary.

    ``dart`` keys the angle: it is the end of the boundary arc following
    the vertex, and the angle is the rotation gap after it (clockwise).
    """

    face: int
    position: int
    vertex: int
    preceding_arc: int
    following_arc: int
    dart: int


@dataclass(frozen=True)
class CompletionArc:
    """A new arc embedded between two angles of one face."""

    face: int
    tail: Angle
    head: Angle

    @property
    def ends(self) -> tuple[int, int]:
        return (self.tail.vertex, self.head.vertex)


@dataclass(frozen=True)
class Completion:
    arcs: tuple[CompletionArc, ...]

    def __len__(self) -> int:
        return len(self.arcs)

    def key(self) -> frozenset[tuple[int, int, int]]:
        """Canonical identity: set of (face, tail dart, head dart)."""
        return frozenset((a.face, a.tail.dart, a.head.dart) for a in self.arcs)


EMPTY_COMPLETION = Completion(())


def derived(fn):
    """Memoize a table derived from a graph, ``fn(D)`` or ``fn(D, arg)``
    with one hashable ``arg`` (a table is never ``None``), in the graph's
    one store ``D._derived``: a dict, ``None`` until the first table is
    asked for, keyed by ``fn`` or by ``(fn, arg)``.  Graphs are immutable,
    so an entry never goes stale; it lives as long as its graph, and no
    two graphs share one.  Every later caller gets the same object, so
    only a table meant to grow, ``supports._grown``, is ever mutated."""
    one = fn.__code__.co_argcount == 1

    def table(D, arg=None):
        store = D._derived
        if store is None:
            store = D._derived = {}
        key = fn if one else (fn, arg)
        value = store.get(key)
        if value is None:
            value = store[key] = fn(D) if one else fn(D, arg)
        return value

    return functools.wraps(fn)(table)


class PlaneDigraph:
    """Immutable plane multidigraph with traced faces.

    Use :func:`build` rather than the constructor; it validates the
    rotation system and the simplicity constraints of the mode.
    """

    __slots__ = (
        "n",
        "arcs",
        "rotation",
        "mode",
        "faces",
        "connected",
        "outer_face",
        "_dart_face",
        "_dart_pos",
        "_rot_next",
        "_derived",
    )

    def __init__(
        self,
        n: int,
        arcs: tuple[tuple[int, int], ...],
        rotation: tuple[tuple[int, ...], ...],
        mode: str,
        faces: tuple[tuple[int, ...], ...],
        connected: bool,
        outer_face: int,
        dart_face: tuple[int, ...],
        dart_pos: tuple[int, ...],
        rot_next: tuple[int, ...],
    ) -> None:
        self.n = n
        self.arcs = arcs
        self.rotation = rotation
        self.mode = mode
        self.faces = faces  # face id -> tuple of angle darts in walk order
        self.connected = connected
        self.outer_face = outer_face
        self._dart_face = dart_face
        self._dart_pos = dart_pos
        self._rot_next = rot_next
        self._derived: Optional[dict] = None  # see derived()

    # -- basic accessors ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.arcs)

    @property
    def f(self) -> int:
        return len(self.faces)

    def dart_vertex(self, dart: int) -> int:
        a = self.arcs[dart >> 1]
        return a[0] if (dart & 1) == 0 else a[1]

    def face_of_dart(self, dart: int) -> int:
        return self._dart_face[dart]

    def angle(self, dart: int) -> Angle:
        """The angle keyed by ``dart`` (following-arc end of the position)."""
        if not 0 <= dart < len(self._dart_face):
            raise StaleAngle(f"dart {dart} is not an angle of this graph")
        f = self._dart_face[dart]
        pos = self._dart_pos[dart]
        walk = self.faces[f]
        return Angle(
            face=f,
            position=pos,
            vertex=self.dart_vertex(dart),
            preceding_arc=walk[pos - 1] >> 1,
            following_arc=dart >> 1,
            dart=dart,
        )

    def face_vertices(self, face: int) -> tuple[int, ...]:
        return tuple(self.dart_vertex(d) for d in self.faces[face])

    @derived
    def adjacency(self) -> tuple[frozenset, list[int]]:
        """(set of ordered arc pairs, per vertex the bitmask of its
        underlying neighbours, the vertex itself excluded)."""
        nbr = [0] * self.n
        for u, v in self.arcs:
            if u != v:
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
        return (frozenset(self.arcs), nbr)

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.adjacency()[0]

    def underlying_adjacent(self, u: int, v: int) -> bool:
        """Distinct vertices joined by an arc in either direction."""
        return bool(self.adjacency()[1][u] >> v & 1)

    # -- derived summaries ----------------------------------------------------

    def angle_table(self) -> dict[int, list[Angle]]:
        """Complete position-indexed angle lists, one per face."""
        return {
            f: [self.angle(d) for d in walk] for f, walk in enumerate(self.faces)
        }

    def euler_characteristic(self) -> int:
        return self.n - self.m + self.f

    def completion_from_darts(
        self, dart_pairs: Iterable[tuple[int, int]]
    ) -> Completion:
        arcs = []
        for dt, dh in dart_pairs:
            at, ah = self.angle(dt), self.angle(dh)
            if at.face != ah.face:
                raise StaleAngle(
                    f"angle darts {dt},{dh} lie in different faces"
                )
            arcs.append(CompletionArc(face=at.face, tail=at, head=ah))
        return Completion(tuple(arcs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlaneDigraph(n={self.n}, m={self.m}, f={self.f}, mode={self.mode})"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _validate_mode(arcs: Sequence[tuple[int, int]], mode: str) -> None:
    if mode == MODE_MULTI:
        return
    seen_ordered: set[tuple[int, int]] = set()
    seen_unordered: set[tuple[int, int]] = set()
    for u, v in arcs:
        if u == v:
            raise ModeViolation(f"loop at vertex {u} is illegal in mode {mode}")
        if (u, v) in seen_ordered:
            raise ModeViolation(f"parallel arcs {u}->{v} in mode {mode}")
        seen_ordered.add((u, v))
        key = (u, v) if u <= v else (v, u)
        if mode == MODE_ORIENTED:
            if key in seen_unordered:
                raise ModeViolation(f"digon between {u} and {v} in oriented mode")
            seen_unordered.add(key)


def _trace_faces(rot_next: list[int]) -> tuple[
        tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]:
    dart_face = [-1] * len(rot_next)
    dart_pos = [0] * len(rot_next)
    faces: list[tuple[int, ...]] = []
    for start in range(len(rot_next)):
        if dart_face[start] >= 0:
            continue
        walk = []
        d = start
        while True:
            dart_face[d] = len(faces)
            dart_pos[d] = len(walk)
            walk.append(d)
            d = rot_next[d ^ 1]
            if d == start:
                break
        faces.append(tuple(walk))
    # tuples of ints, unlike lists, drop out of the collector's tracking
    return tuple(faces), tuple(dart_face), tuple(dart_pos)


def _first_error(n: int, arcs: tuple, rotation: tuple, mode: str) -> NoReturn:
    """Raise the first error of ``build``'s checks, in their order: arc
    ends out of range, the mode, the ring count, each ring entry in ring
    order, unlisted arc ends.  Runs only once the one pass has failed."""
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise DuplicateArcEnd(f"arc ({u},{v}) references missing vertex")
    _validate_mode(arcs, mode)
    if len(rotation) != n:
        raise DuplicateArcEnd("rotation must list every vertex")
    expected_vertex = [v for uv in arcs for v in uv]  # dart -> its vertex
    nd = len(expected_vertex)
    seen = bytearray(nd)
    for v, ring in enumerate(rotation):
        for d in ring:
            if not 0 <= d < nd or seen[d] or expected_vertex[d] != v:
                owner = expected_vertex[d] if 0 <= d < nd else None
                if owner is not None and seen[d]:
                    raise DuplicateArcEnd(f"arc end {d} appears twice")
                raise DuplicateArcEnd(
                    f"arc end {d} listed at vertex {v}, belongs to {owner}")
            seen[d] = 1
    missing = [d for d in range(nd) if not seen[d]]
    raise DuplicateArcEnd(f"arc ends missing from rotations: {missing}")


def build(
    n: int,
    arcs: Sequence[tuple[int, int]],
    rotation: Sequence[Sequence[int]],
    mode: str = MODE_ORIENTED,
    outer_face: int = 0,
) -> PlaneDigraph:
    """Build and validate a plane digraph from its rotation system.

    Faces are traced from the rotations.  Raises ``DuplicateArcEnd`` when
    an arc names a missing vertex or the rotation lists do not mention
    each arc end exactly once at its own vertex, ``ModeViolation`` for
    simplicity violations, and ``NonSphericalEmbedding`` when the graph is
    connected but the Euler relation fails.  A disconnected underlying
    graph is flagged, not fatal.  The checks take one pass: the mode on
    one integer key per arc, each ring while its rotation successors are
    filled in, connectivity by a search over the rings; only when one
    fails do the ordered checks of ``_first_error`` run, to name the
    first error.

    Arc ends must be ints.  The arc pairs and rings are stored as given:
    a tuple stays the same object, so graphs built from shared tuples
    share them; a list is converted.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    arcs = tuple(map(tuple, arcs))
    rotation = tuple(map(tuple, rotation))
    m = len(arcs)
    vert = [v for uv in arcs for v in uv]  # dart -> its vertex
    nd = 2 * m
    if vert and (min(vert) < 0 or max(vert) >= n):
        _first_error(n, arcs, rotation, mode)
    if mode != MODE_MULTI:
        # one key per arc: its vertex pair, unordered in oriented mode, or
        # -1 for a loop; with -1 added, a legal arc list has m + 1 keys
        if mode == MODE_ORIENTED:
            keys = {u * n + v if u < v else v * n + u if v < u else -1
                    for u, v in arcs}
        else:
            keys = {u * n + v if u != v else -1 for u, v in arcs}
        keys.add(-1)
        if len(keys) <= m:
            _first_error(n, arcs, rotation, mode)
    if len(rotation) != n:
        _first_error(n, arcs, rotation, mode)

    # Each ring is walked backwards from its first entry, so every dart is
    # range-checked before it is written; -1 marks an end no ring lists.
    rot_next = [-1] * nd
    for v, ring in enumerate(rotation):
        e = ring[0] if ring else -1
        for d in reversed(ring):
            if not 0 <= d < nd or rot_next[d] >= 0 or vert[d] != v:
                _first_error(n, arcs, rotation, mode)
            rot_next[d] = e
            e = d
    if -1 in rot_next:
        _first_error(n, arcs, rotation, mode)

    faces, dart_face, dart_pos = _trace_faces(rot_next)

    connected = True
    if n > 1:  # a search over the rings; other[d] is the far end of dart d
        other = [0] * nd
        other[0::2] = vert[1::2]
        other[1::2] = vert[0::2]
        seen = [True] + [False] * (n - 1)
        stack = [0]
        while stack:
            for d in rotation[stack.pop()]:
                w = other[d]
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        connected = all(seen)
    if connected and arcs:
        if n - m + len(faces) != 2:
            raise NonSphericalEmbedding(
                f"Euler characteristic {n - m + len(faces)} != 2"
            )
    outer = outer_face if 0 <= outer_face < len(faces) else 0
    return PlaneDigraph(
        n=n, arcs=arcs, rotation=rotation, mode=mode, faces=faces,
        connected=connected, outer_face=outer, dart_face=dart_face,
        dart_pos=dart_pos, rot_next=tuple(rot_next))


# ---------------------------------------------------------------------------
# editing
# ---------------------------------------------------------------------------


def chords_cross(r: int, a: int, b: int, c: int, d: int) -> bool:
    """Strict interleaving of chords (a,b) and (c,d) on a cycle of length r.

    Chords sharing an endpoint position never cross (they nest at the
    shared angle).
    """
    if a == b or c == d:
        return False  # loops occupy a single angle and nest
    if len({a, b} & {c, d}) > 0:
        return False
    # normalise to walk from a: positions of b, c, d measured clockwise
    pb = (b - a) % r
    pc = (c - a) % r
    pd = (d - a) % r
    inside_c = 0 < pc < pb
    inside_d = 0 < pd < pb
    return inside_c != inside_d


def validate_completion_mode(
    base: PlaneDigraph, pairs: Sequence[tuple[int, int]], mode: str
) -> None:
    """Check loop/digon/parallel legality of new arcs against base and
    each other, in the given mode (which may differ from ``base.mode``)."""
    if mode == MODE_MULTI:
        return
    ordered, nbr = base.adjacency()
    new_ordered: set[tuple[int, int]] = set()
    new_unordered: set[tuple[int, int]] = set()
    for dt, dh in pairs:
        u = base.dart_vertex(dt)
        v = base.dart_vertex(dh)
        if u == v:
            raise ModeViolation(f"completion arc is a loop at vertex {u}")
        if (u, v) in ordered or (u, v) in new_ordered:
            raise ModeViolation(f"completion arc {u}->{v} duplicates an arc")
        key = (u, v) if u <= v else (v, u)
        if mode == MODE_ORIENTED and (nbr[u] >> v & 1 or key in new_unordered):
            raise ModeViolation(f"completion arc {u}->{v} forms a digon")
        new_ordered.add((u, v))
        new_unordered.add(key)


_MODE_WIDTH = {MODE_ORIENTED: 0, MODE_DIRECTED: 1, MODE_MULTI: 2}


def _checked_pairs(base: PlaneDigraph, completion, mode: str) -> tuple:
    """The completion's dart pairs and the mode of ``base`` plus them,
    after the legality checks of ``insert_arcs``, which the verifier shares.
    An unknown mode string raises ``ValueError``, as in ``build``."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    result_mode = max(base.mode, mode, key=_MODE_WIDTH.get)
    if isinstance(completion, Completion):
        pairs = [(a.tail.dart, a.head.dart) for a in completion.arcs]
    else:
        pairs = [(dt, dh) for dt, dh in completion]

    for dt, dh in pairs:
        if not (0 <= dt < 2 * base.m and 0 <= dh < 2 * base.m):
            raise StaleAngle(f"angle dart missing from host graph: {dt},{dh}")
        if base._dart_face[dt] != base._dart_face[dh]:
            raise StaleAngle("completion arc spans two distinct faces")

    validate_completion_mode(base, pairs, mode)

    # crossing test per face on boundary positions
    by_face: dict[int, list[int]] = {}
    for idx, (dt, dh) in enumerate(pairs):
        by_face.setdefault(base._dart_face[dt], []).append(idx)
    for f, idxs in by_face.items():
        r = len(base.faces[f])
        for i in range(len(idxs)):
            ai = pairs[idxs[i]]
            pa, pb = base._dart_pos[ai[0]], base._dart_pos[ai[1]]
            for j in range(i + 1, len(idxs)):
                aj = pairs[idxs[j]]
                pc, pd = base._dart_pos[aj[0]], base._dart_pos[aj[1]]
                if chords_cross(r, pa, pb, pc, pd):
                    raise CrossingArcs(
                        f"chords {ai} and {aj} interleave in face {f}"
                    )
    return pairs, result_mode


def insert_arcs(
    base: PlaneDigraph,
    completion: Completion | Sequence[tuple[int, int]],
    mode: Optional[str] = None,
) -> PlaneDigraph:
    """Return ``base`` plus the completion's arcs, re-embedded and re-traced.

    ``mode`` governs the legality of the new arcs against the host and each
    other; the host's own structures stay legal (the result carries the
    wider of the two modes).  Each new arc end is inserted in its angle's
    rotation gap; several new ends landing in one gap are ordered by the
    nesting of their chords.  Raises ``CrossingArcs`` when two chords of
    one face interleave, ``ModeViolation`` on loop/digon/parallel
    violations, and ``StaleAngle`` for angles that do not belong to
    ``base``: the checks of ``_checked_pairs``, shared with the verifier.
    """
    pairs, result_mode = _checked_pairs(base, completion, mode or base.mode)
    if not pairs:
        return base

    # New arcs get ids m, m+1, ...  An angle is the rotation gap just
    # before its walk dart, so new ends are spliced in front of it; when
    # several chords share an angle, the chord with the nearer clockwise
    # target nests innermost (closest to the walk dart).
    m0 = base.m
    new_arcs = list(base.arcs)
    inserts: dict[int, list[tuple]] = {}  # walk dart -> [(sortkey, new dart)]
    for seq, (dt, dh) in enumerate(pairs):
        arc_id = m0 + seq
        u = base.dart_vertex(dt)
        v = base.dart_vertex(dh)
        new_arcs.append((u, v))
        f = base._dart_face[dt]
        r = len(base.faces[f])
        pt, ph = base._dart_pos[dt], base._dart_pos[dh]
        if pt == ph:
            # loop at a single angle: encloses nothing, innermost
            inserts.setdefault(dt, []).append(((0, -seq, 0), tail_dart(arc_id)))
            inserts.setdefault(dt, []).append(((0, -seq, 1), head_dart(arc_id)))
        else:
            dist_t = (ph - pt) % r
            dist_h = (pt - ph) % r
            inserts.setdefault(dt, []).append(
                ((dist_t, seq, 1), tail_dart(arc_id))
            )
            inserts.setdefault(dh, []).append(
                ((dist_h, -seq, 0), head_dart(arc_id))
            )

    new_rotation = []
    for v in range(base.n):
        ring: list[int] = []
        for d in base.rotation[v]:
            if d in inserts:
                for _, nd in sorted(inserts[d], reverse=True):
                    ring.append(nd)
            ring.append(d)
        new_rotation.append(tuple(ring))

    return build(
        base.n,
        new_arcs,
        new_rotation,
        mode=result_mode,
        outer_face=base.outer_face,
    )

