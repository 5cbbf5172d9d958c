"""Shift and gather reconfiguration: turn an arbitrary solution into a
supported one of the same size.

The working object is a multicompletion: a multiset of angle-addressed
arcs where digons, parallels, and loops are tolerated as long as they lie
entirely inside the multiset (the host graph is oriented and never gains
one against itself).  Shifts slide one endpoint along its interval to the
extreme angle that keeps the multiset embeddable and duplicate-free
against the host; strong connectivity is handled separately by the
callers.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import face_analysis as fa
from . import plane_graph as pg
from .errors import EndpointNotFound, GatherBlocked, NotASolution
from .strongconn import scc

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class MultiArc:
    tail_pos: int
    head_pos: int
    face: int

    def positions(self):
        return (self.tail_pos, self.head_pos)


class Multicompletion:
    """Mutable multiset of face chords over a fixed host graph.

    Arc endpoints are face boundary positions; the embedding (nesting at
    shared angles) is recomputed canonically on materialisation.
    """

    def __init__(self, D: pg.PlaneDigraph, arcs: list[MultiArc]):
        self.D = D
        self.arcs = list(arcs)

    @classmethod
    def from_completion(
        cls, D: pg.PlaneDigraph, completion: pg.Completion
    ) -> "Multicompletion":
        arcs = [
            MultiArc(
                tail_pos=a.tail.position,
                head_pos=a.head.position,
                face=a.face,
            )
            for a in completion.arcs
        ]
        return cls(D, arcs)

    def copy(self) -> "Multicompletion":
        return Multicompletion(self.D, list(self.arcs))

    def vertex_pairs(self) -> list[tuple[int, int]]:
        out = []
        for a in self.arcs:
            walk = self.D.faces[a.face]
            out.append(
                (
                    self.D.dart_vertex(walk[a.tail_pos]),
                    self.D.dart_vertex(walk[a.head_pos]),
                )
            )
        return out

    def is_strong_with(self) -> bool:
        # no source component is left on the component DAG plus the arcs
        return not scc(self.D).terminal_sides(self.vertex_pairs())[0]

    def internal_conflicts(self) -> bool:
        """True when the multiset carries a loop, a parallel pair, or a
        digon inside itself (legal for a multicompletion, illegal for a
        completion)."""
        seen: set[tuple[int, int]] = set()
        for u, v in self.vertex_pairs():
            if u == v or (u, v) in seen or (v, u) in seen:
                return True
            seen.add((u, v))
        return False

    def to_completion(self) -> pg.Completion:
        pairs = []
        for a in self.arcs:
            walk = self.D.faces[a.face]
            pairs.append((walk[a.tail_pos], walk[a.head_pos]))
        return self.D.completion_from_darts(pairs)

    # -- endpoint bookkeeping -------------------------------------------

    def endpoints_on(self, face: int, positions: tuple[int, ...]) -> list:
        """Endpoints on an interval, ordered left to right; an endpoint is
        (arc index, "tail"/"head").

        At a shared angle, the rotation fan read from the left starts with
        the chord whose other end is farthest clockwise (it nests
        outermost), matching the canonical insertion order, so that chord's
        endpoint is the lefter one.
        """
        pos_rank = {p: i for i, p in enumerate(positions)}
        r = len(self.D.faces[face])
        out = []
        for idx, a in enumerate(self.arcs):
            if a.face != face:
                continue
            for side, p_self, p_other in (
                ("tail", a.tail_pos, a.head_pos),
                ("head", a.head_pos, a.tail_pos),
            ):
                if p_self in pos_rank:
                    dist = (p_other - p_self) % r
                    fan_key = (
                        (dist, idx, 1) if side == "tail" else (dist, -idx, 0)
                    )
                    out.append(
                        ((pos_rank[p_self],) + tuple(-x for x in fan_key),
                         (idx, side))
                    )
        out.sort()
        return [e for _, e in out]

    def endpoint_position(self, endpoint: tuple[int, str]) -> int:
        idx, side = endpoint
        a = self.arcs[idx]
        return a.tail_pos if side == "tail" else a.head_pos

    def move_endpoint(self, endpoint: tuple[int, str], new_pos: int) -> None:
        idx, side = endpoint
        a = self.arcs[idx]
        if side == "tail":
            self.arcs[idx] = MultiArc(new_pos, a.head_pos, a.face)
        else:
            self.arcs[idx] = MultiArc(a.tail_pos, new_pos, a.face)


def _blocked(D: pg.PlaneDigraph, u: int, v: int) -> bool:
    """An endpoint cannot land on an angle whose vertex is adjacent to the
    arc's other endpoint in the host graph (digon or parallel with it).
    Landing on the other endpoint itself makes an in-multiset loop, which
    is legal."""
    if u == v:
        return False
    return D.underlying_adjacent(u, v)


def shift(
    X: Multicompletion,
    endpoint: tuple[int, str],
    direction: str,
) -> tuple[Multicompletion, bool]:
    """Move one endpoint to the extreme legal angle toward its interval
    end, bounded by the neighbouring endpoint.  Returns (result, moved);
    the input is never mutated."""
    idx, side = endpoint
    if idx >= len(X.arcs):
        raise EndpointNotFound(f"no arc {idx}")
    a = X.arcs[idx]
    pos = X.endpoint_position(endpoint)
    dec = fa.decompose_face(X.D, a.face)
    interval = None
    for iv in dec.intervals():
        if pos in iv.positions:
            interval = iv
            break
    if interval is None:
        return X, False  # strong face: nothing to shift along

    ends = X.endpoints_on(a.face, interval.positions)
    try:
        at = ends.index(endpoint)
    except ValueError:  # pragma: no cover
        raise EndpointNotFound(f"endpoint {endpoint} not on its interval")
    rank = {p: i for i, p in enumerate(interval.positions)}
    my_rank = rank[pos]
    walk = X.D.faces[a.face]
    other_pos = a.head_pos if side == "tail" else a.tail_pos
    other_vertex = X.D.dart_vertex(walk[other_pos])

    if direction == LEFT:
        if at == 0:
            lo = 0
        else:
            lo = rank[X.endpoint_position(ends[at - 1])]
        window = range(lo, my_rank)
    else:
        if at == len(ends) - 1:
            hi = len(interval.positions) - 1
        else:
            hi = rank[X.endpoint_position(ends[at + 1])]
        window = range(hi, my_rank, -1)

    for rk in window:
        p = interval.positions[rk]
        v = X.D.dart_vertex(walk[p])
        if not _blocked(X.D, other_vertex, v):
            out = X.copy()
            out.move_endpoint(endpoint, p)
            return out, True
    return X, False


def gather(
    X: Multicompletion,
    face: int,
    interval: fa.Interval,
    pos_i: int,
    pos_j: int,
) -> Multicompletion:
    """Merge the endpoints at two angles with nothing of the completion
    strictly between them: either everything at the left angle shifts
    right onto the right one, or everything at the right shifts left.
    One direction always succeeds; failure of both raises
    ``GatherBlocked``."""
    for source, direction, target in (
        (pos_i, RIGHT, pos_j),
        (pos_j, LEFT, pos_i),
    ):
        work = X
        while True:
            ends = [
                e
                for e in work.endpoints_on(face, interval.positions)
                if work.endpoint_position(e) == source
            ]
            if not ends:
                return work
            # outermost endpoint first: its window reaches the target angle
            e = ends[-1] if direction == RIGHT else ends[0]
            work, moved = shift(work, e, direction)
            if not moved or work.endpoint_position(e) != target:
                break
    raise GatherBlocked(
        f"face {face}: angles {pos_i},{pos_j} resist gathering"
    )


# ---------------------------------------------------------------------------
# full reconfiguration
# ---------------------------------------------------------------------------


def _prune_minimal(X: Multicompletion) -> Multicompletion:
    """Drop arcs while strong connectivity survives, in deterministic
    order; the result has no removable arc, hence no loop, no duplicate
    pair, and no arc inside one strong component of the host."""
    changed = True
    while changed:
        changed = False
        for idx in range(len(X.arcs)):
            trial = Multicompletion(
                X.D, X.arcs[:idx] + X.arcs[idx + 1 :]
            )
            if trial.is_strong_with():
                X = trial
                changed = True
                break
    return X


def _left_stack_pass(X: Multicompletion, face: int, iv: fa.Interval) -> Multicompletion:
    """Exhaustively left-shift endpoints on a local terminal; index sums
    strictly decrease, so this terminates."""
    while True:
        moved_any = False
        for e in X.endpoints_on(face, iv.positions):
            out, moved = shift(X, e, LEFT)
            if moved:
                X = out
                moved_any = True
                break
        if not moved_any:
            return X


def _stack_split(X: Multicompletion, face: int, iv: fa.Interval):
    """(left stack, middle, right stack) endpoint lists on the interval."""
    ends = X.endpoints_on(face, iv.positions)
    left = 0
    while left < len(ends):
        _, moved = shift(X, ends[left], LEFT)
        if moved:
            break
        left += 1
    right = len(ends)
    while right > left:
        _, moved = shift(X, ends[right - 1], RIGHT)
        if moved:
            break
        right -= 1
    return ends[:left], ends[left:right], ends[right:]


def _dipath_pass(X: Multicompletion, face: int, iv: fa.Interval) -> Multicompletion:
    # phase 1: grow both stacks with connectivity-preserving shifts
    while True:
        _, middle, _ = _stack_split(X, face, iv)
        if not middle:
            return X
        progressed = False
        for e, direction in ((middle[0], LEFT), (middle[-1], RIGHT)):
            out, moved = shift(X, e, direction)
            if moved and out.is_strong_with():
                X = out
                progressed = True
                break
        if not progressed:
            break

    # phase 2: stack the middle leftward, then merge it onto one angle
    _, middle, _ = _stack_split(X, face, iv)
    middle_idx = set(middle)
    while True:
        moved_any = False
        for e in X.endpoints_on(face, iv.positions):
            if e not in middle_idx:
                continue
            out, moved = shift(X, e, LEFT)
            if moved:
                X = out
                moved_any = True
                break
        if not moved_any:
            break
    rank = {p: i for i, p in enumerate(iv.positions)}
    while True:
        middle_pos = sorted(
            {
                rank[X.endpoint_position(e)]
                for e in X.endpoints_on(face, iv.positions)
                if e in middle_idx
            }
        )
        if len(middle_pos) <= 1:
            break
        X = gather(
            X,
            face,
            iv,
            iv.positions[middle_pos[0]],
            iv.positions[middle_pos[1]],
        )
    return X


def to_supported(
    D: pg.PlaneDigraph, completion: pg.Completion
) -> pg.Completion:
    """Reconfigure a solution into a supported solution of at most the
    same size.

    Every local terminal is exhaustively left-shifted; every interval
    dipath gets the two-phase treatment (maximise both stacks while strong
    connectivity is checked per shift, then relocate the middle onto one
    angle by gathering).  If the result carries an in-multiset duplicate,
    it is pruned to a minimal strong multiset and the pass restarts; on a
    minimum input nothing is ever pruned, so sizes match.
    """
    from . import completion_enum as ce
    from . import solvers as sv

    ok, diag = sv.verify_solution(D, completion, pg.MODE_ORIENTED)
    if not ok:
        raise NotASolution(diag)
    X = Multicompletion.from_completion(D, completion)
    # a non-minimum input may carry removable arcs (for instance inside a
    # strong face); a minimum one never loses anything here
    X = _prune_minimal(X)
    for _round in range(len(X.arcs) + 1):
        for face in range(D.f):
            dec = fa.decompose_face(D, face)
            for iv in dec.terminals:
                X = _left_stack_pass(X, face, iv)
            for iv in dec.dipaths:
                X = _dipath_pass(X, face, iv)
        if not X.internal_conflicts():
            break
        X = _prune_minimal(X)
    result = X.to_completion()
    ok, diag = sv.verify_solution(D, result, pg.MODE_ORIENTED)
    if not ok:  # pragma: no cover - bug guard
        raise NotASolution(f"reconfiguration broke the solution: {diag}")
    if not ce.is_supported(D, result):  # pragma: no cover - bug guard
        raise NotASolution("reconfiguration failed to reach a support")
    return result
