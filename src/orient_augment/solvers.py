"""Solver entry points: verifier, brute-force oracle, and the two
branching solvers (budget-bounded augmentation in oriented and directed
mode).

The oracle and both solvers agree on the problem: given a connected plane
graph ``D`` and budget ``k``, find a minimum set of new arcs, embedded
crossing-free inside faces of ``D``, whose addition makes ``D`` strongly
connected while keeping it plane and simple in the requested mode
(``oriented``: no loops, parallels, or digons; ``directed``: digons
allowed).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import completion_enum as ce
from . import face_analysis as fa
from . import plane_graph as pg
from . import pog_io
from . import strongconn as sc
from .errors import BudgetTooLargeForOracle, Disconnected, InfeasibleParameters

DEFAULT_ORACLE_LIMITS = (10, 4)  # max vertices, max budget


@dataclass
class SolveStats:
    branches: int = 0       # 0 in every mode, until a solve trace replaces it
    search_nodes: int = 0   # nodes of the covering search
    trials: int = 0         # Monte-Carlo assignments searched
    seed: Optional[int] = None
    # set on a Monte-Carlo no: 1.0 when every assignment was walked, else
    # the confidence of the sampling
    no_confidence: Optional[float] = None


@dataclass
class SolveReport:
    verdict: bool
    optimum: Optional[int]
    witness: Optional[pg.Completion]
    mode: str
    k: int
    stats: SolveStats = field(default_factory=SolveStats)

    def to_json_dict(self) -> dict:
        return {
            "verdict": "yes" if self.verdict else "no",
            "optimum": self.optimum,
            "witness": None if self.witness is None
            else pog_io.witness_arcs(self.witness),
            "mode": self.mode,
            "k": self.k,
            "statistics": {
                "branches": self.stats.branches,
                "search_nodes": self.stats.search_nodes,
                "trials": self.stats.trials,
                "no_confidence": self.stats.no_confidence,
            },
            "seed": self.stats.seed,
        }


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_solution(
    D: pg.PlaneDigraph,
    completion: pg.Completion,
    mode: Optional[str] = None,
) -> tuple[bool, str]:
    """True iff the completion embeds legally in ``mode`` and the result is
    strongly connected.  Never raises; the diagnostic names the failure.
    Legality is ``insert_arcs``'s check; past it the rebuild cannot fail
    (``D`` is valid, and chords that do not interleave each split a face).
    Each strong component of ``D`` lies in one of ``D`` plus the arcs, so
    strength is tested exactly on ``D``'s component DAG plus the arcs."""
    try:
        pairs, _ = pg._checked_pairs(D, completion, mode or pg.MODE_ORIENTED)
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"
    ends = [(D.dart_vertex(dt), D.dart_vertex(dh)) for dt, dh in pairs]
    if sc.scc(D).terminal_sides(ends)[0]:  # a source component is left
        return False, "NotStrong: augmented graph has several components"
    return True, "ok"


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def _check_budget(k: int) -> None:
    if k < 0:
        raise InfeasibleParameters(f"budget k = {k} is negative")


def _closure(n: int, adj: list[int]) -> list[int]:
    reach = [adj[v] | (1 << v) for v in range(n)]
    changed = True
    while changed:
        changed = False
        for v in range(n):
            r = reach[v]
            acc = r
            w = r
            while w:
                b = w & (-w)
                acc |= reach[b.bit_length() - 1]
                w ^= b
            if acc != r:
                reach[v] = acc
                changed = True
    return reach


def _terminal_bound(n: int, adj: list[int]) -> tuple[int, bool]:
    """(lower bound on remaining arcs, already strong)."""
    reach = _closure(n, adj)
    full = (1 << n) - 1
    if all(r == full for r in reach):
        return 0, True
    comp_id = [-1] * n
    comps = 0
    for v in range(n):
        if comp_id[v] != -1:
            continue
        for w in range(v, n):
            if comp_id[w] == -1 and (reach[v] >> w) & 1 and (reach[w] >> v) & 1:
                comp_id[w] = comps
        comps += 1
    has_in = [False] * comps
    has_out = [False] * comps
    for v in range(n):
        w = adj[v]
        while w:
            b = w & (-w)
            t = b.bit_length() - 1
            w ^= b
            if comp_id[v] != comp_id[t]:
                has_out[comp_id[v]] = True
                has_in[comp_id[t]] = True
    sources = sum(1 for c in range(comps) if not has_in[c])
    sinks = sum(1 for c in range(comps) if not has_out[c])
    return max(sources, sinks, 1), False


@dataclass(frozen=True)
class _Candidate:
    face: int
    pos_t: int
    pos_h: int
    u: int
    v: int
    dart_t: int
    dart_h: int
    pair_key: tuple[int, int]  # unordered component pair of the host graph


def oracle_candidates(D: pg.PlaneDigraph, mode: str) -> list[_Candidate]:
    """All completion arcs a minimal solution may use: angle pairs whose
    vertices lie in distinct strong components, with no loop and no
    mode-violating duplicate against the host graph."""
    comp = sc.scc(D).component
    ordered, nbr = D.adjacency()
    out: list[_Candidate] = []
    for f in range(D.f):
        walk = D.faces[f]
        r = len(walk)
        verts = [D.dart_vertex(d) for d in walk]
        for i in range(r):
            for j in range(r):
                if i == j:
                    continue
                u, v = verts[i], verts[j]
                if u == v or comp[u] == comp[v]:
                    continue
                if mode == pg.MODE_ORIENTED:
                    if nbr[u] >> v & 1:
                        continue
                else:
                    if (u, v) in ordered:
                        continue
                cu, cv = comp[u], comp[v]
                out.append(
                    _Candidate(
                        face=f,
                        pos_t=i,
                        pos_h=j,
                        u=u,
                        v=v,
                        dart_t=walk[i],
                        dart_h=walk[j],
                        pair_key=(cu, cv) if cu <= cv else (cv, cu),
                    )
                )
    return out


def brute_solve(
    D: pg.PlaneDigraph,
    k: int,
    mode: str = pg.MODE_ORIENTED,
    limits: tuple[int, int] = DEFAULT_ORACLE_LIMITS,
) -> SolveReport:
    """Exact minimum augmentation by pruned exhaustive search.

    Intended for tiny instances; raises ``BudgetTooLargeForOracle`` above
    the configured limits.  Candidate arcs are restricted to pairs of
    distinct strong components with at most one arc per unordered
    component pair (any minimum solution has this form), and crossings and
    duplicates are pruned incrementally.
    """
    _check_budget(k)
    if D.n > limits[0] or k > limits[1]:
        raise BudgetTooLargeForOracle(
            f"oracle limits are n<={limits[0]}, k<={limits[1]}"
        )
    if not D.connected:
        raise Disconnected("oracle requires a connected underlying graph")

    base_adj = [0] * D.n
    for u, v in D.arcs:
        if u != v:
            base_adj[u] |= 1 << v

    lb0, strong0 = _terminal_bound(D.n, base_adj)
    if strong0:
        return SolveReport(
            verdict=True, optimum=0, witness=pg.EMPTY_COMPLETION,
            mode=mode, k=k,
        )

    cands = oracle_candidates(D, mode)
    face_len = [len(w) for w in D.faces]
    ncand = len(cands)
    witness: Optional[list[_Candidate]] = None

    def dfs(start: int, budget: int, adj: list[int], chosen: list[_Candidate],
            used_pairs: set, lb: int) -> bool:
        nonlocal witness
        if lb == 0:
            witness = list(chosen)
            return True
        if lb > budget:
            return False
        for idx in range(start, ncand):
            c = cands[idx]
            if c.pair_key in used_pairs:
                continue
            ok = True
            for o in chosen:
                if o.face == c.face and pg.chords_cross(
                    face_len[c.face], o.pos_t, o.pos_h, c.pos_t, c.pos_h
                ):
                    ok = False
                    break
            if not ok:
                continue
            adj2 = list(adj)
            adj2[c.u] |= 1 << c.v
            lb2, strong2 = _terminal_bound(D.n, adj2)
            if strong2:
                lb2 = 0
            chosen.append(c)
            used_pairs.add(c.pair_key)
            if dfs(idx + 1, budget - 1, adj2, chosen, used_pairs, lb2):
                return True
            chosen.pop()
            used_pairs.discard(c.pair_key)
        return False

    for b in range(1, k + 1):
        if lb0 > b:
            continue
        if dfs(0, b, base_adj, [], set(), lb0):
            comp = D.completion_from_darts(
                [(c.dart_t, c.dart_h) for c in witness]
            )
            return SolveReport(
                verdict=True, optimum=len(witness), witness=comp, mode=mode, k=k,
            )
    return SolveReport(verdict=False, optimum=None, witness=None, mode=mode, k=k)


# ---------------------------------------------------------------------------
# the covering search shared by both branching solvers
# ---------------------------------------------------------------------------

# Largest simple-face candidate list observed over the exhaustive corpus;
# tests/test_acceptance.py re-measures and fails if it grows past this.
PINNED_SIMPLE_CANDIDATE_BOUND = 700

MC_DELTA = 0.05


def default_trials(k: int) -> int:
    # ceil(700^k ln(1/delta)) in exact integers: 700^k leaves the float
    # range at k = 109
    num, den = math.log(1 / MC_DELTA).as_integer_ratio()
    return max(1, -(-PINNED_SIMPLE_CANDIDATE_BOUND ** k * num // den))


def _report(mode: str, k: int, stats: SolveStats,
            witness: Optional[pg.Completion]) -> SolveReport:
    return SolveReport(
        verdict=witness is not None,
        optimum=None if witness is None else len(witness.arcs),
        witness=witness, mode=mode, k=k, stats=stats,
    )


def _levels(D: pg.PlaneDigraph, k: int, arc_mode: str) -> range:
    """The budgets at which a minimum solution of ``D`` may lie, smallest
    first: from the Eswaran-Tarjan floor max(#source, #sink), which the
    paper's filter (fewer than ``8b`` local terminals on the alternating
    faces) never exceeds, up to ``k`` and the room planarity leaves:
    ``D`` plus a solution spans at most 3n - 6 vertex pairs (n - 1 when
    n < 3), each joined once in oriented mode and at most once per
    direction in directed mode."""
    low = sc.scc(D).solution_floor()
    pairs = 3 * D.n - 6 if D.n >= 3 else D.n - 1
    ordered, nbr = D.adjacency()
    if arc_mode == pg.MODE_ORIENTED:
        room = pairs - sum(m.bit_count() for m in nbr) // 2
    else:
        room = 2 * pairs - sum(u != v for u, v in ordered)
    return range(low, min(k, room) + 1)


def _cover(
    D: pg.PlaneDigraph,
    levels: range,
    mode: str,
    stats: SolveStats,
    barred: int = 0,
) -> Optional[list[tuple[int, int]]]:
    """Minimum augmentation of a non-strong ``D`` at a budget in
    ``levels``, as dart pairs, or None: the search of both solvers in
    every mode.

    For ``b`` over ``levels`` (a prefix of ``_levels``), one covering
    search with cap ``b`` (``strongconn.cover_search``) from the component
    DAG's closure over the rows of ``completion_enum.legal_arcs(D, mode)``
    outside the mask ``barred``.  The table's conflict masks keep a chosen
    set to one arc per unordered component pair and to chords that cross
    in no face, and no row joins a vertex pair that ``D`` joins against
    the mode, so every set it accepts embeds legally.

    With nothing barred it is exact.  Some minimum solution holds at most
    one arc per unordered component pair (the pair rule, which the
    oracle's ``pair_key`` assumes as well), so all of its arcs are rows
    and no two of them conflict; and ``cover_search`` reaches every such
    set of at most ``b`` rows that makes ``D`` strong.  So the first ``b``
    that succeeds is the optimum.  The Monte-Carlo mode bars each simple
    face's rows but those of one sampled member, and gets the minimum
    among the solutions that lie inside them.

    The price of exactness without member lists: exact mode is an
    n^O(k) search with no bound per face.  The paper's face-bounded
    2^O(k) n^O(1) route, one bounded list of members per face, lives on
    in the Monte-Carlo mode."""
    part = sc.scc(D)
    rows, ends, conflict = ce.legal_arcs(D, mode)
    for b in levels:
        found, nodes = sc.cover_search(part.reach, ends, b, conflict, barred)
        stats.search_nodes += nodes
        if found is not None:
            return [rows[x][0] for x in found]
    return None


def _witness(D: pg.PlaneDigraph, pairs: list[tuple[int, int]],
             mode: str) -> pg.Completion:
    witness = D.completion_from_darts(pairs)
    ok, diag = verify_solution(D, witness, mode)
    if not ok:  # pragma: no cover - guarded by construction
        raise AssertionError(f"solver produced invalid witness: {diag}")
    return witness


def _exact(D: pg.PlaneDigraph, k: int, mode: str,
           stats: SolveStats) -> SolveReport:
    """The exact mode of both solvers: ``_cover`` over every legal arc, at
    the budgets ``_levels`` leaves.  Every solve runs its search, so a
    repeated solve of one graph reports the same nodes and witness."""
    if sc.is_strong(D):
        return _report(mode, k, stats, pg.EMPTY_COMPLETION)
    best = _cover(D, _levels(D, k, mode), mode, stats)
    return _report(mode, k, stats,
                   None if best is None else _witness(D, best, mode))


def sampling_confidence(trials: int, sizes: Sequence[int], k: int) -> float:
    """1 - (1 - p)^trials, kept from rounding away when p is tiny: the
    chance that ``trials`` assignments of one uniform random member per
    candidate list, of ``sizes`` members each, hit the members a solution
    of at most ``k`` arcs lies in.  It touches at most ``k`` lists, so p
    is the product of 1 / size over the min(k, len(sizes)) longest."""
    p = math.prod(1 / s for s in sorted(sizes, reverse=True)[:k])
    return -math.expm1(trials * math.log1p(-p))


def _montecarlo(
    D: pg.PlaneDigraph,
    k: int,
    stats: SolveStats,
    trials: Optional[int],
    rng: random.Random,
) -> Optional[list[tuple[int, int]]]:
    """Monte-Carlo oriented augmentation of a non-strong ``D`` within
    budget ``k``, as dart pairs, or None; a no sets
    ``stats.no_confidence``.

    The exact search (``_cover``) with each simple face's legal arcs cut
    down to one member of its candidate list per trial: on every
    assignment when there are no more of them than ``trials``, else on
    ``trials`` random ones (``default_trials`` of the largest budget
    ``_levels`` leaves when None).  The budgets come from ``_levels`` once
    per solve; each later search is capped one arc below the best found
    so far, and the loop stops once that cap falls below their floor."""
    levels = _levels(D, k, pg.MODE_ORIENTED)
    k = min(k, levels.stop - 1)  # no solution is larger than the room
    trials = trials or default_trials(k)
    simple = fa.simple_faces(D)
    lists = [sets for f in simple
             if levels and (sets := ce.simple_face_sets(D, f))]
    rows = ce.legal_arcs(D, pg.MODE_ORIENTED)[0]
    rest = sum(1 << x for x, (darts, _) in enumerate(rows)
               if D.face_of_dart(darts[0]) not in simple)
    walk = math.prod(map(len, lists)) <= trials
    if walk:
        assignments = itertools.product(*lists)
    else:
        assignments = ([rng.choice(sets) for sets in lists]
                       for _ in range(trials))
    best = None
    for assignment in assignments:
        cap = k if best is None else len(best) - 1
        if cap < levels.start:
            break
        stats.trials += bool(lists)  # no simple face: nothing is sampled
        # the members and the rest lie in distinct faces: the masks add up
        best = _cover(D, range(levels.start, min(levels.stop, cap + 1)),
                      pg.MODE_ORIENTED, stats, ~sum(assignment, rest)) or best
    if best is None:
        # a no is exact when every assignment was walked
        stats.no_confidence = 1.0 if walk else sampling_confidence(
            trials, list(map(len, lists)), k)
    return best


# ---------------------------------------------------------------------------
# the two solvers
# ---------------------------------------------------------------------------


def solve_oriented(
    D: pg.PlaneDigraph,
    k: int,
    method: str = "exhaustive",
    trials: Optional[int] = None,
    seed: Optional[int] = None,
) -> SolveReport:
    """Minimum oriented augmentation within budget ``k``.

    Deepens the budget ``b`` from the Eswaran-Tarjan floor to ``k`` and
    stops at the first ``b`` that answers yes, so a large ``k`` costs what
    the optimum costs.  The exact mode runs, at each ``b``, one covering
    search over the legal arcs of the open faces, driven by the terminal
    sides of the component DAG (``_cover`` over
    ``completion_enum.legal_arcs``).  With
    ``method="montecarlo"`` it runs the same search with each simple
    face's arcs cut down to one random member of its candidate list per
    trial (``_montecarlo``; a yes is always certified, a no may err).  A
    negative ``k``, another ``method`` or fewer than one trial raise
    ``InfeasibleParameters``.
    """
    _check_budget(k)
    if method not in ("exhaustive", "montecarlo"):
        raise InfeasibleParameters(
            f"unknown method {method!r}: use 'exhaustive' or 'montecarlo'")
    if trials is not None and trials < 1:
        raise InfeasibleParameters(f"trials = {trials}: at least 1 is needed")
    if not D.connected:
        raise Disconnected("solver requires a connected underlying graph")
    stats = SolveStats(seed=seed)
    if method == "exhaustive":
        return _exact(D, k, pg.MODE_ORIENTED, stats)
    if sc.is_strong(D):
        return _report(pg.MODE_ORIENTED, k, stats, pg.EMPTY_COMPLETION)
    best = _montecarlo(D, k, stats, trials, random.Random(seed))
    return _report(pg.MODE_ORIENTED, k, stats, None if best is None
                   else _witness(D, best, pg.MODE_ORIENTED))


def solve_directed(D: pg.PlaneDigraph, k: int) -> SolveReport:
    """Minimum digon-allowed augmentation within budget ``k``: the exact
    search of ``solve_oriented`` over the arcs between the local-terminal
    runs of the open faces (``completion_enum.legal_arcs``), digons with
    the arcs of ``D`` allowed."""
    _check_budget(k)
    if not D.connected:
        raise Disconnected("solver requires a connected underlying graph")
    return _exact(D, k, pg.MODE_DIRECTED, SolveStats())
