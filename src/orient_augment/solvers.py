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
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import completion_enum as ce
from . import dijoin as dj
from . import face_analysis as fa
from . import plane_graph as pg
from . import strongconn as sc
from .errors import BudgetTooLargeForOracle, Disconnected

DEFAULT_ORACLE_LIMITS = (10, 4)  # max vertices, max budget


@dataclass
class SolveStats:
    branches: int = 0
    search_nodes: int = 0   # nodes of the exact simple-face search
    dijoin_calls: int = 0   # auxiliary dijoins of the Monte-Carlo mode
    trials: int = 0
    seed: Optional[int] = None
    # set on a Monte-Carlo no: 1.0 when no branch was sampled, else the
    # per-branch confidence of the sampling
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
        wit = None
        if self.witness is not None:
            wit = [
                {
                    "face": a.face,
                    "tail": {"vertex": a.tail.vertex, "position": a.tail.position},
                    "head": {"vertex": a.head.vertex, "position": a.head.position},
                }
                for a in self.witness.arcs
            ]
        return {
            "verdict": "yes" if self.verdict else "no",
            "optimum": self.optimum,
            "witness": wit,
            "mode": self.mode,
            "k": self.k,
            "statistics": {
                "branches": self.stats.branches,
                "search_nodes": self.stats.search_nodes,
                "dijoin_calls": self.stats.dijoin_calls,
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
    strongly connected.  Never raises; the diagnostic names the failure."""
    mode = mode or pg.MODE_ORIENTED
    try:
        augmented = pg.insert_arcs(D, completion, mode=mode)
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"
    if not sc.is_strong(augmented):
        return False, "NotStrong: augmented graph has several components"
    return True, "ok"


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


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
# the branch loop shared by both branching solvers
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


def _memo(D: pg.PlaneDigraph, mode: str) -> _Memo:
    return D._analysis_cache.setdefault(("memo", mode), _Memo())


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


class _Branch(NamedTuple):
    """The host graph plus one branch's arcs, at adjacency level."""

    ends: list[tuple[int, int]]      # vertex pairs of the branch arcs
    blocked: set[tuple[int, int]]    # pairs a simple-face arc may not join
    sources: list[int]               # component-id bitmasks of sources
    sinks: list[int]                 # ... and of sinks
    floor: int                       # Eswaran-Tarjan: max(#source, #sink)


def _covers_terminals(comp, branch: _Branch, allowed: dict) -> bool:
    """Necessary condition for the allowed arcs to complete the branch:
    every source component (``comp`` maps vertices to component ids) must
    receive a head, every sink must emit a tail."""
    arcs = [(comp[u], comp[v]) for c in allowed.values()
            for u, v in (a.ends for a in c.arcs)]
    enters = lambda m: any((m >> v) & 1 and not (m >> u) & 1 for u, v in arcs)
    leaves = lambda m: any((m >> u) & 1 and not (m >> v) & 1 for u, v in arcs)
    return all(map(enters, branch.sources)) and all(map(leaves, branch.sinks))


def _complete_assignment(
    D: pg.PlaneDigraph,
    branch: _Branch,
    faces: Sequence[int],
    assignment: Sequence[pg.Completion],
    cap: int,
    stats: SolveStats,
) -> Optional[pg.Completion]:
    """Minimum completion of at most ``cap`` arcs making the branch strong,
    drawn from one candidate completion per face, or None.  Candidate arcs
    the branch made illegal are dropped; the rest stay valid because branch
    arcs live in other faces."""
    allowed = {}
    for f, comp in zip(faces, assignment):
        kept = tuple(a for a in comp.arcs if a.ends not in branch.blocked)
        if kept:
            allowed[f] = pg.Completion(kept)
    if not _covers_terminals(sc.scc(D).component, branch, allowed):
        return None
    inst = dj.build_auxiliary_with_extra(
        D, branch.ends, allowed, cap, subdivision=False
    )
    stats.dijoin_calls += 1
    y = dj.solve_auxiliary(inst)
    return dj.extract_solution(inst, y) if y else None


# a simple face's arc: face index, mask of members holding it, ends, darts
_SimpleArc = namedtuple("_SimpleArc", "face members ends darts")


def _simple_search(D: pg.PlaneDigraph, simple: list, arc_mode: str,
                   stats: SolveStats) -> Callable[..., Optional[list]]:
    """Exact resolver: ``complete(branch, budget)`` gives the dart pairs of
    a minimum completion of at most ``budget`` arcs in the simple faces
    that makes the branch strong, or None.  Deepening from the branch's
    floor, each node branches over the compatible arcs fixing the terminal
    side of the component DAG that the fewest of them fix: every solution
    fixes every side, and a minimum one lies, per face, inside a member.
    Compatible: a member of its face holds it and every arc chosen there,
    its pair is not blocked, not chosen (oriented: either way) and not
    tried by an earlier sibling.  A cap's outcome depends only on the
    branch's arcs, so a branch met again resumes above its failed caps."""
    part = sc.scc(D)
    comp = part.component
    arcs: list[_SimpleArc] = []
    for i, (_, cs) in enumerate(simple):
        held: dict[tuple[int, int], list] = {}
        for m, c in enumerate(cs):
            for a in c.arcs:
                darts = (a.tail.dart, a.head.dart)
                held.setdefault(darts, [0, a.ends])[0] |= 1 << m
        arcs += [_SimpleArc(i, ms, e, d) for d, (ms, e) in held.items()]
    full = [(1 << len(cs)) - 1 for _, cs in simple]
    failed: dict[frozenset, int] = {}

    def complete(branch: _Branch, budget: int):
        masks, chosen = list(full), []

        def search(room: int, tried: frozenset) -> bool:
            stats.search_nodes += 1
            sources, sinks = part.terminal_sides(
                branch.ends + [a.ends for a in chosen])
            if not sources or max(len(sources), len(sinks)) > room:
                return not sources
            taken = branch.blocked.union(a.ends for a in chosen)
            if arc_mode == pg.MODE_ORIENTED:
                taken.update((a.ends[1], a.ends[0]) for a in chosen)
            free = [a for a in arcs if masks[a.face] & a.members
                    and a.ends not in taken and a.darts not in tried]
            # a source needs an arc entering it, a sink one leaving it
            for a in min(([a for a in free if side >> comp[a.ends[into]] & 1
                           and not side >> comp[a.ends[1 - into]] & 1]
                          for side, into in [(s, 1) for s in sources]
                          + [(s, 0) for s in sinks]), key=len):
                chosen.append(a)
                saved, masks[a.face] = masks[a.face], masks[a.face] & a.members
                if search(room - 1, tried):
                    return True
                masks[a.face] = saved
                chosen.pop()
                tried |= {a.darts}
            return False

        key = frozenset(branch.ends)
        for cap in range(max(branch.floor, failed.get(key, -1) + 1), budget + 1):
            if search(cap, frozenset()):
                return [a.darts for a in chosen]
            failed[key] = cap

    return complete


def _simple_montecarlo(
    D: pg.PlaneDigraph,
    branch: _Branch,
    simple: list[tuple[int, list[pg.Completion]]],
    budget: int,
    stats: SolveStats,
    trials: int,
    rng: random.Random,
) -> tuple[Optional[list[tuple[int, int]]], bool]:
    """Dart pairs of the best completion over ``trials`` random candidate
    assignments, one per face, and whether it walked every assignment
    instead, as it does when there are no more of them than ``trials``."""
    faces, lists = zip(*simple)
    walk = math.prod(len(cs) for cs in lists) <= trials
    if walk:
        assignments = itertools.product(*lists)
    else:
        assignments = ([rng.choice(cs) for cs in lists] for _ in range(trials))
    best: Optional[pg.Completion] = None
    for assignment in assignments:
        cap = budget if best is None else len(best.arcs) - 1
        if cap < branch.floor:
            break
        stats.trials += 1
        found = _complete_assignment(D, branch, faces, assignment, cap, stats)
        if found is not None:
            best = found
    return best and [(a.tail.dart, a.head.dart) for a in best.arcs], walk


def _branch_loop(
    D: pg.PlaneDigraph,
    branches: Callable[[int], Iterable[tuple[pg.Completion, ...]]],
    candidates: Callable[[int], list[pg.Completion]],
    k: int,
    arc_mode: str,
    stats: SolveStats,
    sample: Optional[Callable[..., Optional[list[tuple[int, int]]]]] = None,
) -> Optional[list[tuple[int, int]]]:
    """Minimum augmentation of a non-strong ``D`` within budget ``k``, as
    dart pairs, or None.

    Iterative deepening on the total size: for ``b`` over ``_levels``, the
    branches of at most ``b`` arcs, ``branches(b)`` (one completion per
    alternating face, pruned against ``b``), are tried smallest first, and
    the first one that completes within ``b`` is the answer: every smaller
    budget answered no, so it is minimum.  A branch not strong on the
    component DAG is resolved in the simple faces, from their lists
    ``candidates(face)``, by ``_simple_search`` or ``sample(branch, simple,
    budget)``.  ``arc_mode`` says which pairs a branch blocks: adjacent
    ones in oriented mode, arcs in directed mode."""
    levels = _levels(D, k, arc_mode)
    if not levels:
        return None
    simple = [(f, cs) for f in fa.simple_faces(D) if (cs := candidates(f))]
    complete = (lambda br, budget: sample(br, simple, budget)) if sample \
        else _simple_search(D, simple, arc_mode, stats)
    for b in levels:
        for parts in sorted(branches(b), key=lambda ps: sum(map(len, ps))):
            stats.branches += 1
            size = sum(map(len, parts))
            arcs = [a for c in parts for a in c.arcs]
            pairs = [(a.tail.dart, a.head.dart) for a in arcs]
            ends = [a.ends for a in arcs]
            sources, sinks = sc.scc(D).terminal_sides(ends)
            if not sources:
                return pairs
            floor = max(len(sources), len(sinks))
            if b - size < floor or not simple:
                continue
            blocked = set(D.arcs).union(ends)
            if arc_mode == pg.MODE_ORIENTED:
                blocked |= {(v, u) for u, v in blocked}
            found = complete(_Branch(ends, blocked, sources, sinks, floor),
                             b - size)
            if found is not None:
                return pairs + found
    return None


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
    the optimum costs.  At each ``b`` it branches over the supported
    completions of the alternating faces whose Eswaran-Tarjan floor is
    at most ``b``; the remainder lives in the instance's simple faces.
    The exact mode resolves it by one search over their candidate arcs,
    driven by the terminal sides of the component DAG; with
    ``method="montecarlo"`` it is resolved through the candidate-arc
    dijoin reduction on one random candidate per face and trial (a yes
    is always certified, a no may err).
    """
    if not D.connected:
        raise Disconnected("solver requires a connected underlying graph")
    stats = SolveStats(seed=seed)
    if sc.is_strong(D):
        return _report(pg.MODE_ORIENTED, k, stats, pg.EMPTY_COMPLETION)
    exact = method == "exhaustive"
    # the exhaustive mode is exact and deterministic, so its outcomes are
    # budget-monotone facts about the instance and can be reused
    memo = _memo(D, pg.MODE_ORIENTED)
    known, witness = memo.lookup(k) if exact else (False, None)
    if known:
        return _report(pg.MODE_ORIENTED, k, stats, witness)
    sampled = False
    if not exact:
        trials = default_trials(k) if trials is None else trials
        rng = random.Random(seed)

        def sample(branch, simple, budget):
            nonlocal sampled
            found, walked = _simple_montecarlo(D, branch, simple, budget,
                                               stats, trials, rng)
            sampled = sampled or not walked
            return found

    best = _branch_loop(
        D, lambda b: ce.alternating_branches(D, b, minimal_only=True),
        lambda f: ce.simple_face_candidates(D, f), k, pg.MODE_ORIENTED,
        stats, None if exact else sample,
    )
    if best is not None:
        witness = D.completion_from_darts(best)
        ok, diag = verify_solution(D, witness, pg.MODE_ORIENTED)
        if not ok:  # pragma: no cover - guarded by construction
            raise AssertionError(f"solver produced invalid witness: {diag}")
    elif not exact:
        # a no is exact unless some branch was sampled; then report the
        # per-branch confidence 1 - (1 - p)^trials, kept from rounding away
        p = PINNED_SIMPLE_CANDIDATE_BOUND ** (-k)
        stats.no_confidence = (
            -math.expm1(max(trials, 1) * math.log1p(-p)) if sampled else 1.0
        )
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
    faces = fa.alternating_faces(part)
    return _branch_loop(
        part, lambda b: ce.directed_joint_branches(part, faces, b),
        lambda f: ce.directed_supported_completions(part, f, 1)[1:],
        kmax, pg.MODE_DIRECTED, stats,
    )


def solve_directed(D: pg.PlaneDigraph, k: int) -> SolveReport:
    """Minimum digon-allowed augmentation within budget ``k``.

    Pipeline: contract strong components (plane-preserving), split the
    DAG-with-loops along its loops, solve each loopless part by branching
    over digon-allowed completions of alternating faces plus the search
    on simple faces, then recombine budgets and lift the witness back.
    """
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
