"""Minimum strong-connectivity augmentation, three ways.

The solvers answer: how many new arcs must be embedded inside faces so the
graph becomes strongly connected while staying plane and simple?  The
oriented solver forbids two-way pairs entirely; the digon-allowed solver
permits an added arc opposite an existing one.

Run:
  python demos/02_solving.py
"""

from orient_augment import pog_io
from orient_augment import solvers as sv
from orient_augment.face_analysis import classify_all

D = pog_io.gen_random(8, 11, seed=12)
print("random instance: n =", D.n, "m =", D.m)
_, report = classify_all(D)
print(report.table())

# the brute-force oracle (exact, tiny instances only)
oracle = sv.brute_solve(D, 3)
print("\noracle:", "optimum", oracle.optimum if oracle.verdict else "> 3")

# the exact solver: at each budget, one covering search over the legal
# arcs of the open faces, no two of which conflict
for k in range(4):
    rep = sv.solve_oriented(D, k)
    print(f"solve_oriented(k={k}): {'yes' if rep.verdict else 'no'}"
          + (f", optimum {rep.optimum}" if rep.verdict else ""))

rep = sv.solve_oriented(D, 3)
if rep.verdict:
    print("witness arcs:")
    for a in rep.witness.arcs:
        print(f"  face {a.face}: {a.tail.vertex}@{a.tail.position} -> "
              f"{a.head.vertex}@{a.head.position}")
    ok, diag = sv.verify_solution(D, rep.witness)
    print("verified:", ok)

# digons allowed: never harder than the oriented problem
drep = sv.solve_directed(D, 3)
print("\ndigon-allowed optimum:",
      drep.optimum if drep.verdict else "> 3")

# Monte-Carlo mode guesses one candidate completion per simple face per
# trial; a yes is always certified, only a no can err
mc = sv.solve_oriented(D, 3, method="montecarlo", trials=50, seed=7)
print("montecarlo (50 trials):", "yes" if mc.verdict else "no",
      "| trials used:", mc.stats.trials, "| search nodes:", mc.stats.search_nodes)
