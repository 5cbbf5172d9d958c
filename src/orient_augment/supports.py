"""Candidate angle families that bound where maximally shifted completion
endpoints can sit on an interval.

For an interval ``I`` of a face, the left family of level ``q`` contains
angle sets of size ``q``; a completion whose endpoints on ``I`` cannot be
shifted left occupies exactly one of them (and symmetrically for right).
Families grow by two rules: append the next angle after the current
rightmost member, or jump to the first angle past it whose vertex is not
adjacent to the unique common neighbour of the two angles at the frontier.
Adjacency is underlying adjacency in the host graph: any existing arc,
whatever its orientation or embedding, blocks a shift because the shifted
arc would duplicate it or close a digon.

Level 1 holds (0,) and (1,), and the append rule grows them, so for
``q < r`` angles level ``q`` of a left family holds the leading windows
(0, ..., q - 1) and (1, ..., q), and a right family their mirrors.  An
endpoint set inside one leading plus one trailing window is supported, and
where ``2q >= r`` every set is; families are built only past the windows.

Both rules look only at a member's last angle, so each interval side is
grown once: level q + 1 is built from level q, and a higher level extends
the levels kept per (face, positions in side order).  Adjacency is read
from the graph's neighbour bitmasks (``PlaneDigraph.adjacency``) and a
vertex mask kept per face, so a common neighbour is one AND of masks and
a non-neighbour one bit test.
"""

from __future__ import annotations

from typing import Optional

from . import plane_graph as pg
from .errors import MultipleCommonNeighbours
from .face_analysis import Interval


@pg.derived
def _face_mask(D: pg.PlaneDigraph, face: int) -> int:
    """Bitmask of the face's vertices, built once per face."""
    return sum(1 << v for v in set(D.face_vertices(face)))


def common_neighbour(
    D: pg.PlaneDigraph, face: int, pos_a: int, pos_b: int
) -> Optional[int]:
    """The unique common neighbour of two consecutive boundary vertices
    within the face's vertex set, or None.

    Two common neighbours would contradict the outerplanarity of the
    structure induced on a face, so that case raises
    ``MultipleCommonNeighbours`` as a bug guard.
    """
    walk = D.faces[face]
    va = D.dart_vertex(walk[pos_a])
    vb = D.dart_vertex(walk[pos_b])
    _, nbr = D.adjacency()
    # no mask holds its own vertex, so va and vb drop out of the AND
    common = nbr[va] & nbr[vb] & _face_mask(D, face)
    if common & (common - 1):
        raise MultipleCommonNeighbours(
            f"face {face}: {va},{vb} share neighbours "
            f"{[v for v in range(D.n) if common >> v & 1]}"
        )
    return common.bit_length() - 1 if common else None


def _jump(
    D: pg.PlaneDigraph, face: int, positions: tuple[int, ...], i: int
) -> Optional[int]:
    """The first index past ``i`` whose vertex is not adjacent to the
    common neighbour of the angles at ``i`` and ``i + 1``, or None.  That
    neighbour is adjacent to the vertex at ``i + 1``, so the scan starts at
    ``i + 2``."""
    u = common_neighbour(D, face, positions[i], positions[i + 1])
    if u is None:
        return None
    around = D.adjacency()[1][u]
    walk = D.faces[face]
    for h in range(i + 2, len(positions)):
        if not around >> D.dart_vertex(walk[positions[h]]) & 1:
            return h
    return None


@pg.derived
def _grown(D: pg.PlaneDigraph, side: tuple[int, tuple[int, ...]]) -> list:
    """The levels of the left family of one (face, positions) side grown so
    far: [last level as index tuples, every level's members, jumps]."""
    return [[], [], {}]


def _family(
    D: pg.PlaneDigraph, face: int, positions: tuple[int, ...], q: int
) -> tuple[frozenset[int], ...]:
    """Level ``q`` of the left family over ``positions`` ordered left to
    right.  The levels are kept per (face, positions) and each is built
    once, from the one before it.  Indices in a member increase and a jump
    lands two or more past the last one, so no member is built twice."""
    if q < 1:
        return ()
    grown = _grown(D, (face, positions))
    frontier, members, jumps = grown
    if q <= len(members):
        return members[q - 1]
    r = len(positions)

    def jump(i: int) -> Optional[int]:
        if i not in jumps:
            jumps[i] = _jump(D, face, positions, i)
        return jumps[i]

    while len(members) < q:
        if members:
            frontier = [
                b + (h,)
                for b in frontier if b[-1] + 1 < r
                for h in (b[-1] + 1, jump(b[-1])) if h is not None
            ]
        else:
            frontier = [(h,) for h in ((0, 1, jump(0)) if r >= 2 else range(r))
                        if h is not None]
        members.append(
            tuple(frozenset(positions[i] for i in b) for b in frontier))
    grown[0] = frontier
    return members[q - 1]


def left_supports(
    D: pg.PlaneDigraph, interval: Interval, q: int
) -> tuple[frozenset[int], ...]:
    """Level ``q`` of the interval's left family: its members, as sets of
    boundary positions."""
    return _family(D, interval.face, interval.positions, q)


def right_supports(
    D: pg.PlaneDigraph, interval: Interval, q: int
) -> tuple[frozenset[int], ...]:
    """Level ``q`` of the interval's right family, as ``left_supports``."""
    return _family(D, interval.face, interval.positions[::-1], q)


def support_pool(
    D: pg.PlaneDigraph, interval: Interval, q_max: int
) -> frozenset[int]:
    """Union of all member angles of both families up to level ``q_max``;
    every supported completion's endpoints on the interval lie in it.
    The leading windows up to level ``q`` cover the first ``q + 1`` angles
    and the trailing ones the last, so where ``2q + 2 >= r`` for the level
    cap ``q`` the pool is the whole interval."""
    r = len(interval.positions)
    q_cap = min(q_max, r)
    if 2 * q_cap + 2 >= r:
        return frozenset(interval.positions)
    return frozenset(
        p
        for positions in (interval.positions, interval.positions[::-1])
        for q in range(1, q_cap + 1)
        for b in _family(D, interval.face, positions, q)
        for p in b
    )


def is_supported_on_interval(
    D: pg.PlaneDigraph, interval: Interval, endpoint_positions: list[int]
) -> bool:
    """Check the defining condition: the distinct endpoint angles, which
    lie on the interval, are covered by one left member united with one
    right member, both of level equal to the number ``q`` of distinct
    angles.  A leading and a trailing window of level ``q`` are such
    members, so angles inside two of them (all angles when ``2q`` reaches
    the interval's length) are answered without building a family."""
    w = frozenset(endpoint_positions)
    P = interval.positions
    q, r = len(w), len(P)
    if q > r:
        return False
    if not w or 2 * q >= r or any(w <= set(P[a:a + q] + P[r - q - b:r - b])
                                  for a in (0, 1) for b in (0, 1)):
        return True
    lefts = _family(D, interval.face, P, q)
    rights = _family(D, interval.face, P[::-1], q)
    for bl in lefts:
        rest = w - bl
        if not rest:
            return True
        for br in rights:
            if rest <= br:
                return True
    return False
