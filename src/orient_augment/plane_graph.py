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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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


def dart_arc(dart: int) -> int:
    return dart >> 1


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
        "_angle_cache",
        "_adj_cache",
        "_scc_cache",
        "_analysis_cache",
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
        self._angle_cache: dict[int, Angle] = {}
        self._adj_cache: Optional[tuple[frozenset, list[int]]] = None
        self._scc_cache = None
        self._analysis_cache: dict = {}

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

    def rot_next(self, dart: int) -> int:
        return self._rot_next[dart]

    def face_of_dart(self, dart: int) -> int:
        return self._dart_face[dart]

    def angle(self, dart: int) -> Angle:
        """The angle keyed by ``dart`` (following-arc end of the position)."""
        cached = self._angle_cache.get(dart)
        if cached is not None:
            return cached
        if not 0 <= dart < len(self._dart_face):
            raise StaleAngle(f"dart {dart} is not an angle of this graph")
        f = self._dart_face[dart]
        pos = self._dart_pos[dart]
        walk = self.faces[f]
        prev = walk[pos - 1]
        ang = Angle(
            face=f,
            position=pos,
            vertex=self.dart_vertex(dart),
            preceding_arc=prev >> 1,
            following_arc=dart >> 1,
            dart=dart,
        )
        self._angle_cache[dart] = ang
        return ang

    def face_vertices(self, face: int) -> tuple[int, ...]:
        return tuple(self.dart_vertex(d) for d in self.faces[face])

    def adjacency(self) -> tuple[frozenset, list[int]]:
        """(set of ordered arc pairs, per vertex the bitmask of its
        underlying neighbours, the vertex itself excluded)."""
        if self._adj_cache is None:
            nbr = [0] * self.n
            for u, v in self.arcs:
                if u != v:
                    nbr[u] |= 1 << v
                    nbr[v] |= 1 << u
            self._adj_cache = (frozenset(self.arcs), nbr)
        return self._adj_cache

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


def _trace_faces(
    arcs: Sequence[tuple[int, int]],
    rotation: Sequence[tuple[int, ...]],
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...],
           tuple[int, ...]]:
    rot_next = [0] * (2 * len(arcs))
    for ring in rotation:
        for d, e in zip(ring, ring[1:] + ring[:1]):
            rot_next[d] = e

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
    return tuple(faces), tuple(dart_face), tuple(dart_pos), tuple(rot_next)


def build(
    n: int,
    arcs: Sequence[tuple[int, int]],
    rotation: Sequence[Sequence[int]],
    mode: str = MODE_ORIENTED,
    outer_face: int = 0,
) -> PlaneDigraph:
    """Build and validate a plane digraph from its rotation system.

    Faces are traced from the rotations.  Raises ``DuplicateArcEnd`` when
    the rotation lists do not mention each arc end exactly once at its own
    vertex, ``ModeViolation`` for simplicity violations, and
    ``NonSphericalEmbedding`` when the graph is connected but the Euler
    relation fails.  A disconnected underlying graph is flagged, not fatal.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    arcs = tuple((int(u), int(v)) for u, v in arcs)
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise DuplicateArcEnd(f"arc ({u},{v}) references missing vertex")
    _validate_mode(arcs, mode)

    expected_vertex = [v for uv in arcs for v in uv]  # dart -> its vertex
    nd = len(expected_vertex)
    seen = bytearray(nd)
    rotation = tuple(tuple(ring) for ring in rotation)
    if len(rotation) != n:
        raise DuplicateArcEnd("rotation must list every vertex")
    for v, ring in enumerate(rotation):
        for d in ring:
            if not 0 <= d < nd or seen[d] or expected_vertex[d] != v:
                owner = expected_vertex[d] if 0 <= d < nd else None
                if owner is not None and seen[d]:
                    raise DuplicateArcEnd(f"arc end {d} appears twice")
                raise DuplicateArcEnd(
                    f"arc end {d} listed at vertex {v}, belongs to {owner}")
            seen[d] = 1
    if 0 in seen:
        missing = [d for d in range(nd) if not seen[d]]
        raise DuplicateArcEnd(f"arc ends missing from rotations: {missing}")

    faces, dart_face, dart_pos, rot_next = _trace_faces(arcs, rotation)

    connected = _underlying_connected(n, arcs)
    if connected and arcs:
        if n - len(arcs) + len(faces) != 2:
            raise NonSphericalEmbedding(
                f"Euler characteristic {n - len(arcs) + len(faces)} != 2"
            )
    if not faces:
        faces = ()
        outer = 0
    else:
        outer = outer_face if 0 <= outer_face < len(faces) else 0
    return PlaneDigraph(
        n=n,
        arcs=arcs,
        rotation=rotation,
        mode=mode,
        faces=faces,
        connected=connected,
        outer_face=outer,
        dart_face=dart_face,
        dart_pos=dart_pos,
        rot_next=rot_next,
    )


def _underlying_connected(n: int, arcs: Sequence[tuple[int, int]]) -> bool:
    if n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


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

