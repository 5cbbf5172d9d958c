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
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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


@dataclass
class _Memo:
    """Outcomes of exact solves of one graph.  They are budget-monotone
    facts about the instance: the optimum with its witness once found,
    else the largest budget answered no."""

    opt: Optional[int] = None
    witness: Optional[pg.Completion] = None
    no_at: int = 0

    def lookup(self, k: int) -> tuple[bool, Optional[pg.Completion]]:
        """Whether an earlier solve settles budget ``k``, and the witness
        when it settles it as yes."""
        if self.opt is not None:
            return True, self.witness if self.opt <= k else None
        return k <= self.no_at, None

    def record(self, k: int, witness: Optional[pg.Completion]) -> None:
        if witness is None:
            self.no_at = max(self.no_at, k)
        else:
            self.opt, self.witness = len(witness.arcs), witness


@pg.derived
def _memo(D: pg.PlaneDigraph, mode: str) -> _Memo:
    return _Memo()


def _levels(D: pg.PlaneDigraph, k: int, arc_mode: str) -> range:
    """The budgets at which a minimum solution of ``D`` may lie, smallest
    first.  From below: the Eswaran-Tarjan floor max(#source, #sink), and
    more than an eighth of the local terminals of the alternating faces
    (a budget-``b`` solution leaves fewer than ``8b``).  From above: ``k``,
    and the room planarity leaves, since ``D`` plus a solution spans at
    most 3n - 6 vertex pairs (n - 1 when n < 3), each joined once in
    oriented mode and at most once per direction in directed mode."""
    low = max(sc.scc(D).solution_floor(),
              fa.alternating_terminal_sum(D) // 8 + 1)
    pairs = 3 * D.n - 6 if D.n >= 3 else D.n - 1
    ordered, nbr = D.adjacency()
    if arc_mode == pg.MODE_ORIENTED:
        room = pairs - sum(m.bit_count() for m in nbr) // 2
    else:
        room = 2 * pairs - sum(u != v for u, v in ordered)
    return range(low, min(k, room) + 1)


# an arc of an open face's members: index of the face's list, mask of the
# members holding it, ends, darts
_MemberArc = namedtuple("_MemberArc", "face members ends darts")


def _cover(
    D: pg.PlaneDigraph,
    levels: range,
    arc_mode: str,
    members: Callable[[int], list[list[tuple]]],
    stats: SolveStats,
) -> Optional[list[tuple[int, int]]]:
    """Minimum augmentation of a non-strong ``D`` at a budget in
    ``levels``, as dart pairs, or None: the search of both solvers in
    every mode.

    For ``b`` over ``levels`` (a prefix of ``_levels``), one covering
    search with cap ``b`` (``strongconn.cover_search``) on the component
    DAG, over the distinct arcs of the members that ``members(b)`` lists
    per open face as rows of ``completion_enum`` (one ``((tail dart,
    head dart), (u, v))`` per arc; only the witness becomes a
    ``Completion``, in the caller).  It
    accepts a set when one member of each face holds all of its arcs
    there and no vertex pair is joined twice (in oriented mode not even
    reversed); members embed legally and avoid the host's arcs, so every
    set it accepts is a legal completion.  It is exact because some
    minimum solution is supported (``reconfigure.to_supported``,
    acceptance criterion 6), so in each face it lies inside one member:
    an alternating face lists every supported completion a minimum
    solution of at most ``b`` arcs may restrict to, a simple face the
    maximal ones.  So the first ``b`` that succeeds is the optimum; the
    Monte-Carlo mode lists one member per simple face, and gets the
    minimum among the solutions that lie inside them."""
    part = sc.scc(D)
    comp = part.component
    oriented = arc_mode == pg.MODE_ORIENTED
    for b in levels:
        arcs: list[_MemberArc] = []
        for i, rows in enumerate(members(b)):
            held: dict[tuple[int, int], list] = {}
            for m, row in enumerate(rows):
                for darts, ends in row:
                    held.setdefault(darts, [0, ends])[0] |= 1 << m
            arcs += [_MemberArc(i, ms, e, d) for d, (ms, e) in held.items()]

        def usable(chosen: list[int], i: int) -> bool:
            a = arcs[i]
            inside = a.members
            for c in map(arcs.__getitem__, chosen):
                if c.ends == a.ends or oriented and c.ends == a.ends[::-1]:
                    return False
                if c.face == a.face:
                    inside &= c.members
            return inside != 0

        found, nodes = sc.cover_search(
            part.count, part.comp_arcs,
            [(comp[u], comp[v]) for u, v in (a.ends for a in arcs)], b, usable)
        stats.search_nodes += nodes
        if found is not None:
            return [arcs[i].darts for i in found]
    return None


def sampling_confidence(trials: int, sizes: Sequence[int], k: int) -> float:
    """1 - (1 - p)^trials, kept from rounding away when p is tiny: the
    chance that ``trials`` assignments of one uniform random member per
    candidate list, of ``sizes`` members each, hit the members a solution
    of at most ``k`` arcs lies in.  It touches at most ``k`` lists, so p
    is the product of 1 / size over the min(k, len(sizes)) longest."""
    p = math.prod(1 / s for s in sorted(sizes, reverse=True)[:k])
    return -math.expm1(trials * math.log1p(-p))


@pg.derived
def _alternating_rows(D: pg.PlaneDigraph, b: int) -> list[list[tuple]]:
    """Per alternating face, the members a minimum solution of at most
    ``b`` arcs may restrict to there."""
    return [ce.supported_rows(D, f, b, bounded=True)
            for f in fa.alternating_faces(D)]


def _montecarlo(
    D: pg.PlaneDigraph,
    k: int,
    stats: SolveStats,
    trials: int,
    rng: random.Random,
) -> Optional[list[tuple[int, int]]]:
    """Monte-Carlo oriented augmentation of a non-strong ``D`` within
    budget ``k``, as dart pairs, or None; a no sets
    ``stats.no_confidence``.

    The exact search (``_cover``) with each simple face's candidate list
    cut down to one member per trial: on every assignment when there are
    no more of them than ``trials``, else on ``trials`` random ones.  The
    budgets come from ``_levels`` once per solve; each later search is
    capped one arc below the best found so far, and the loop stops once
    that cap falls below their floor."""
    levels = _levels(D, k, pg.MODE_ORIENTED)
    lists = [rows for f in fa.simple_faces(D)
             if levels and (rows := ce.simple_face_rows(D, f))]
    walk = math.prod(map(len, lists)) <= trials
    if walk:
        assignments = itertools.product(*lists)
    else:
        assignments = ([rng.choice(rows) for rows in lists]
                       for _ in range(trials))
    best = None
    for assignment in assignments:
        cap = k if best is None else len(best) - 1
        if cap < levels.start:
            break
        stats.trials += bool(lists)  # no simple face: nothing is sampled
        members = lambda b: _alternating_rows(D, b) + [
            [row] for row in assignment]
        best = _cover(D, range(levels.start, min(levels.stop, cap + 1)),
                      pg.MODE_ORIENTED, members, stats) or best
    if best is None:
        # a no is exact when every assignment was walked
        stats.no_confidence = 1.0 if walk else sampling_confidence(
            trials, list(map(len, lists)), k)
    return best


# ---------------------------------------------------------------------------
# oriented-mode branching solver
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
    search over the arcs of the supported completions of every open face
    (at most ``b`` arcs in an alternating face, the candidate lists in a
    simple face), driven by the terminal sides of the component DAG
    (``_cover``).  With ``method="montecarlo"`` it runs the same search
    with each simple face's list cut down to one random member per trial
    (``_montecarlo``; a yes is always certified, a no may err).  A
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
    if sc.is_strong(D):
        return _report(pg.MODE_ORIENTED, k, stats, pg.EMPTY_COMPLETION)
    exact = method == "exhaustive"
    if exact:
        # the exhaustive mode is exact and deterministic, so its outcomes
        # are budget-monotone facts about the instance and can be reused
        memo = _memo(D, pg.MODE_ORIENTED)
        known, witness = memo.lookup(k)
        if known:
            return _report(pg.MODE_ORIENTED, k, stats, witness)
        members = lambda b: _alternating_rows(D, b) + [
            ce.simple_face_rows(D, f) for f in fa.simple_faces(D)]
        best = _cover(D, _levels(D, k, pg.MODE_ORIENTED), pg.MODE_ORIENTED,
                      members, stats)
    else:
        best = _montecarlo(D, k, stats,
                           default_trials(k) if trials is None else trials,
                           random.Random(seed))
    witness = None
    if best is not None:
        witness = D.completion_from_darts(best)
        ok, diag = verify_solution(D, witness, pg.MODE_ORIENTED)
        if not ok:  # pragma: no cover - guarded by construction
            raise AssertionError(f"solver produced invalid witness: {diag}")
    if exact:
        memo.record(k, witness)
    return _report(pg.MODE_ORIENTED, k, stats, witness)


# ---------------------------------------------------------------------------
# digon-allowed branching solver
# ---------------------------------------------------------------------------


def _solve_directed_part(
    part: pg.PlaneDigraph, kmax: int, stats: SolveStats
) -> Optional[list[tuple[int, int]]]:
    """Minimum augmentation of one loopless acyclic part, as dart pairs,
    or None when it exceeds ``kmax``."""
    if sc.is_strong(part):
        return []
    return _cover(part, _levels(part, kmax, pg.MODE_DIRECTED),
                  pg.MODE_DIRECTED, lambda b: [
        ce.directed_supported_rows(part, f, b)
        for f in range(part.f)
    ], stats)


def solve_directed(D: pg.PlaneDigraph, k: int) -> SolveReport:
    """Minimum digon-allowed augmentation within budget ``k``.

    Pipeline: contract strong components (plane-preserving), split the
    DAG-with-loops along its loops, solve each loopless part by one
    covering search per budget over the arcs of the digon-allowed
    completions of its faces (``_cover``), then recombine budgets and
    lift the witness back.
    """
    _check_budget(k)
    if not D.connected:
        raise Disconnected("solver requires a connected underlying graph")
    stats = SolveStats()
    if sc.is_strong(D):
        return _report(pg.MODE_DIRECTED, k, stats, pg.EMPTY_COMPLETION)
    memo = _memo(D, pg.MODE_DIRECTED)
    known, witness = memo.lookup(k)
    if known:
        return _report(pg.MODE_DIRECTED, k, stats, witness)
    cond = sc.condense(D)
    # recombine across parts and lift through the condensation
    pairs_on_condensed: list[tuple[int, int]] = []
    for sp_part in sc.split_loops(cond.condensed):
        sol = _solve_directed_part(
            sp_part.graph, k - len(pairs_on_condensed), stats
        )
        if sol is None:
            memo.record(k, None)
            return _report(pg.MODE_DIRECTED, k, stats, None)
        back = sp_part.arc_back
        pairs_on_condensed += [
            (2 * back[dt >> 1] + (dt & 1), 2 * back[dh >> 1] + (dh & 1))
            for dt, dh in sol
        ]
    x_c = cond.condensed.completion_from_darts(pairs_on_condensed)
    witness = sc.lift_solution(cond, x_c)
    ok, diag = verify_solution(D, witness, pg.MODE_DIRECTED)
    if not ok:  # pragma: no cover - guarded by construction
        raise AssertionError(f"directed witness failed verification: {diag}")
    memo.record(k, witness)
    return _report(pg.MODE_DIRECTED, k, stats, witness)
