"""Shifting a solution onto its supports.

Any minimum solution can be slid, endpoint by endpoint, toward the local
terminals of each face until every interval's endpoints occupy one of a
small family of candidate angle sets (the supports).  The Monte-Carlo mode
samples its candidates from these supported solutions; the exact mode
searches every legal arc.

Run:
  python demos/03_reconfiguration.py
"""

from orient_augment import completion_enum as ce
from orient_augment import plane_graph as pg
from orient_augment import reconfigure as rc
from orient_augment import solvers as sv
from orient_augment import supports as sp
from orient_augment.face_analysis import decompose_face

# A directed path 0 -> 1 -> ... -> 5: one face, one source, one sink.
n = 6
arcs = [(i, i + 1) for i in range(n - 1)]
rotation = [(0,)] + [(2 * v, 2 * (v - 1) + 1) for v in range(1, n - 1)] + [
    (2 * (n - 2) + 1,)
]
D = pg.build(n, arcs, rotation)
dec = decompose_face(D, 0)
print("path instance; face intervals:")
for iv in dec.intervals():
    print(f"  {iv.kind}: positions {iv.positions}")

# support families of the long dipath
P = max(dec.dipaths, key=len)
for q in (1, 2):
    fam = sp.left_supports(D, P, q)
    print(f"left supports level {q}: {[sorted(b) for b in fam]} "
          f"(bound {3 * 2 ** (q - 1)})")

# Take a deliberately awkward solution: two arcs relaying through vertex
# 3, whose endpoints sit mid-dipath rather than on support angles.
walk = D.faces[0]
verts = [D.dart_vertex(d) for d in walk]
mid = next(p for p in P.positions if D.dart_vertex(walk[p]) == 3)
awkward = D.completion_from_darts(
    [(walk[verts.index(5)], walk[mid]), (walk[mid], walk[verts.index(0)])]
)
ok, _ = sv.verify_solution(D, awkward)
print("\nawkward witness (relay parked at vertex 3) is a solution:", ok)

supported = rc.to_supported(D, awkward)
print("after reconfiguration:")
for a in supported.arcs:
    print(f"  {a.tail.vertex}@{a.tail.position} -> {a.head.vertex}@{a.head.position}")
print("still a solution:", sv.verify_solution(D, supported)[0])
print("supported:", ce.is_supported(D, supported))
print(f"size {len(awkward.arcs)} -> {len(supported.arcs)} (never grows)")
