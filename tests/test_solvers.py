import collections
import dataclasses
import pathlib
import random
import time

import pytest

from orient_augment import completion_enum as ce
from orient_augment import enumerate_plane as ep
from orient_augment import face_analysis as fa
from orient_augment import plane_graph as pg
from orient_augment import pog_io
from orient_augment import solvers as sv
from orient_augment import strongconn as sc
from orient_augment.errors import (
    BudgetTooLargeForOracle, Disconnected, InfeasibleParameters)


def test_verify_strong_with_empty(triangle):
    ok, diag = sv.verify_solution(triangle, pg.EMPTY_COMPLETION)
    assert ok and diag == "ok"


def test_verify_names_crossing(simple_square):
    D = simple_square
    f0 = D.faces[0]
    verts = [D.dart_vertex(d) for d in f0]
    comp = D.completion_from_darts(
        [
            (f0[verts.index(2)], f0[verts.index(0)]),
            (f0[verts.index(1)], f0[verts.index(3)]),
        ]
    )
    ok, diag = sv.verify_solution(D, comp)
    assert not ok and "CrossingArcs" in diag


def verify_solution_reference(D, completion, mode=None):
    """The verifier before it ran on the component DAG: re-embed the
    completion with ``insert_arcs`` and run Tarjan on the result."""
    mode = mode or pg.MODE_ORIENTED
    try:
        augmented = pg.insert_arcs(D, completion, mode=mode)
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"
    if not sc.is_strong(augmented):
        return False, "NotStrong: augmented graph has several components"
    return True, "ok"


def raw_completion(D, pairs):
    """A completion on any dart pairs, foreign darts and two-face pairs
    included, which ``completion_from_darts`` would refuse."""
    def angle(d):
        if 0 <= d < 2 * D.m:
            return D.angle(d)
        return pg.Angle(face=-1, position=-1, vertex=-1, preceding_arc=-1,
                        following_arc=-1, dart=d)
    return pg.Completion(tuple(
        pg.CompletionArc(face=angle(dt).face, tail=angle(dt), head=angle(dh))
        for dt, dh in pairs))


def random_pairs(D, rng):
    """0-4 dart pairs, each drawn from one of several kinds: a chord of one
    face, a loop at one angle, a copy or reversal of a host arc, two
    interleaving chords, two arbitrary darts, or a foreign dart."""
    nd = 2 * D.m
    pairs = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice((0, 0, 0, 1, 2, 2, 3, 4, 5)) if nd else 5
        walk = D.faces[rng.randrange(D.f)] if D.f else ()
        if kind == 0 and walk:
            pairs.append((rng.choice(walk), rng.choice(walk)))
        elif kind == 1 and walk:
            d = rng.choice(walk)
            pairs.append((d, d))
        elif kind == 2:
            a = rng.randrange(nd)  # an arc end, its face and the far end
            far = [d for d in D.faces[D.face_of_dart(a)]
                   if D.dart_vertex(d) == D.dart_vertex(a ^ 1)]
            pairs.append((a, rng.choice(far))[::rng.choice((1, -1))])
        elif kind == 3 and len(walk) >= 4:
            p = sorted(rng.sample(range(len(walk)), 4))
            pairs.append((walk[p[0]], walk[p[2]])[::rng.choice((1, -1))])
            pairs.append((walk[p[1]], walk[p[3]])[::rng.choice((1, -1))])
        elif kind == 4:
            pairs.append((rng.randrange(nd), rng.randrange(nd)))
        else:
            bad = rng.choice([-1, -2 * max(nd, 1), nd, nd + 5])
            good = rng.randrange(nd) if nd else 0
            pairs.append((bad, good)[::rng.choice((1, -1))])
    return pairs


def differential_hosts():
    yield from ep.oriented_corpus(5)
    for n in range(9, 17):
        for seed in range(12):
            mode = pg.MODE_DIRECTED if seed % 3 == 0 else pg.MODE_ORIENTED
            m = n - 1 + (seed * 7) % (2 * n - 5)
            yield pog_io.gen_random(n, m, seed=900 + 20 * n + seed, mode=mode)


def test_verify_matches_reembedding_reference():
    rng = random.Random(12)
    outcomes = collections.Counter()
    for D in differential_hosts():
        for _ in range(8):
            comp = raw_completion(D, random_pairs(D, rng))
            for mode in (None, pg.MODE_ORIENTED, pg.MODE_DIRECTED,
                         pg.MODE_MULTI):
                got = sv.verify_solution(D, comp, mode)
                assert got == verify_solution_reference(D, comp, mode), (
                    pog_io.write_pog(D), comp.key(), mode)
                outcomes[got[1].split(":")[0]] += 1
    assert set(outcomes) == {"ok", "NotStrong", "ModeViolation",
                             "StaleAngle", "CrossingArcs"}, outcomes
    assert min(outcomes.values()) >= 100, outcomes


def test_verify_matches_reference_on_condensed_and_directed_hosts():
    # condensed hosts are multigraphs with loops; the directed hosts hold
    # digons, so checking them in oriented mode widens the result's mode
    rng = random.Random(3)
    seen = collections.Counter()
    for seed in range(12):
        D = pog_io.gen_random(8, 12, seed, mode=pg.MODE_DIRECTED)
        assert any((v, u) in D.arcs for u, v in D.arcs)
        for host in (D, sc.condense(D).condensed,
                     sc.condense(pog_io.gen_random(9, 13, seed)).condensed):
            # every chord alone, and with a loop at its tail's angle
            chords = [(a, b) for walk in host.faces for a in walk for b in walk]
            comps = [host.completion_from_darts(pairs) for a, b in chords
                     for pairs in ([(a, b)], [(a, b), (a, a)])]
            comps += [raw_completion(host, random_pairs(host, rng))
                      for _ in range(50)]
            if host is D:  # the solver's witness, legal in oriented mode
                rep = sv.solve_oriented(D, 3)
                comps += [rep.witness] if rep.verdict else []
            for comp in comps:
                for mode in (None, pg.MODE_ORIENTED, pg.MODE_DIRECTED,
                             pg.MODE_MULTI):
                    got = sv.verify_solution(host, comp, mode)
                    assert got == verify_solution_reference(host, comp, mode)
                    loop = any(a.tail.dart == a.head.dart for a in comp.arcs)
                    seen[host.mode, mode, loop, got[0]] += 1
    assert seen[pg.MODE_MULTI, pg.MODE_MULTI, True, True] > 0
    assert seen[pg.MODE_DIRECTED, pg.MODE_ORIENTED, False, True] > 0


def legality_only_solve(D, k, mode, monkeypatch):
    """``brute_solve`` without the pair rule: its candidates keyed by
    vertex pair (ordered where digons are legal), so it forbids only what
    legality forbids, not a second arc between two strong components."""
    candidates = sv.oracle_candidates

    def by_vertex_pair(D, mode):
        return [dataclasses.replace(c, pair_key=(c.u, c.v)
                                    if mode == pg.MODE_DIRECTED or c.u < c.v
                                    else (c.v, c.u))
                for c in candidates(D, mode)]

    with monkeypatch.context() as patch:
        patch.setattr(sv, "oracle_candidates", by_vertex_pair)
        return sv.brute_solve(D, k, mode=mode)


@pytest.mark.parametrize("mode, solve", [
    (pg.MODE_ORIENTED, sv.solve_oriented), (pg.MODE_DIRECTED, sv.solve_directed),
])
def test_pair_rule_keeps_the_optimum(monkeypatch, mode, solve):
    # every engine keeps at most one arc per unordered component pair; a
    # search that keeps any legal set finds the same optima
    answers = collections.Counter()
    for D in ep.oriented_corpus(5):
        want = legality_only_solve(D, 3, mode, monkeypatch)
        for rep in (sv.brute_solve(D, 3, mode=mode), solve(D, 3)):
            assert (rep.verdict, rep.optimum) == (want.verdict, want.optimum)
        answers[want.optimum] += 1
    assert len(answers) >= 4, answers


@pytest.mark.parametrize("mode", [pg.MODE_ORIENTED, pg.MODE_DIRECTED])
def test_legal_arcs_conflict_masks(mode):
    # x conflicts with y exactly when they join one unordered component
    # pair or cross in one face; every row and every pair of rows that do
    # not conflict embed legally, so every conflict-free set does
    pairs = crossing = 0
    for D in ep.oriented_corpus(5):
        rows, ends, conflict = ce.legal_arcs(D, mode)
        assert len(conflict) == len(ends) == len(rows)
        comp = sc.scc(D).component
        assert ends == [(comp[u], comp[v]) for _, (u, v) in rows]
        pair = list(map(set, ends))
        chord = [(D.face_of_dart(dt), D._dart_pos[dt], D._dart_pos[dh])
                 for (dt, dh), _ in rows]
        for x, (darts, ends) in enumerate(rows):
            pg._checked_pairs(D, [darts], mode)
            assert ends == tuple(map(D.dart_vertex, darts))
            f, i, j = chord[x]
            for y in range(len(rows)):
                g, p, q = chord[y]
                cross = f == g and pg.chords_cross(len(D.faces[f]), i, j, p, q)
                assert bool(conflict[x] >> y & 1) == (
                    pair[x] == pair[y] or cross)
                assert conflict[x] >> y & 1 == conflict[y] >> x & 1
                crossing += cross and pair[x] != pair[y]
                if y < x and not conflict[x] >> y & 1:
                    pg._checked_pairs(D, [darts, rows[y][0]], mode)
                    pairs += 1
    assert pairs > 1000 and crossing > 100


def legal_arcs_reference(D, mode):
    """``legal_arcs`` as first written: per open face, one ``dart_vertex``
    read per end of every position pair, over every position (oriented)
    or the first position of each local terminal of ``decompose_face``
    (directed); conflicts from ``chords_cross`` and the component pairs."""
    nbr = D.adjacency()[1] if mode == pg.MODE_ORIENTED else [0] * D.n
    part = sc.scc(D)
    comp, reached = part.component, part.reach[0]
    rows, chords = [], []
    for f in fa.open_faces(D):
        walk = D.faces[f]
        sites = (range(len(walk)) if mode == pg.MODE_ORIENTED
                 else [t.start for t in fa.decompose_face(D, f).terminals])
        for i in sites:
            for j in sites:
                u, v = D.dart_vertex(walk[i]), D.dart_vertex(walk[j])
                if not (reached[comp[u]] >> comp[v] & 1 or nbr[u] >> v & 1):
                    rows.append(((walk[i], walk[j]), (u, v)))
                    chords.append((f, i, j))
    ends = [(comp[u], comp[v]) for _, (u, v) in rows]
    conflict = [sum(1 << y for y, (g, p, q) in enumerate(chords)
                    if {*ends[x]} == {*ends[y]} or f == g
                    and pg.chords_cross(len(D.faces[f]), i, j, p, q))
                for x, (f, i, j) in enumerate(chords)]
    return rows, ends, conflict


def test_legal_arcs_match_the_decomposition_reference():
    # the same rows in the same order (the witness pins below depend on
    # it), the same ends and the same conflict masks, in both modes
    graphs = list(ep.oriented_corpus(5))
    graphs += [pog_io.gen_random(n, m, seed)
               for n, m, seed in [(7, 6, 1), (7, 9, 2), (8, 7, 3), (8, 12, 4),
                                  (9, 8, 5), (9, 10, 6), (9, 14, 7)]]
    count = {pg.MODE_ORIENTED: 0, pg.MODE_DIRECTED: 0}
    wrapped = 0
    for D in graphs:
        for mode in count:
            assert ce.legal_arcs(D, mode) == legal_arcs_reference(D, mode)
            count[mode] += len(ce.legal_arcs(D, mode)[0])
        # local terminals whose run wraps past the end of the walk
        wrapped += sum(t.positions[0] > t.positions[-1]
                       for f in fa.open_faces(D)
                       for t in fa.decompose_face(D, f).terminals)
    assert (count[pg.MODE_ORIENTED], count[pg.MODE_DIRECTED], wrapped) \
        == (3775, 4999, 191)


def test_directed_simple_face_unique_candidate(simple_square):
    # a simple face offers the single arc from its sink to its source
    D = simple_square
    rows = ce.legal_arcs(D, pg.MODE_DIRECTED)[0]
    assert [ends for darts, ends in rows if D.face_of_dart(darts[0]) == 0] \
        == [(2, 0)]


def test_directed_octagon_counts(alternating_octagon):
    # per face, four sink and four source runs of one vertex each: 16 arcs
    # from a sink to a source, 12 between two sinks and 12 between two
    # sources, and 8 from a source to a sink it does not already reach
    D = alternating_octagon
    rows = ce.legal_arcs(D, pg.MODE_DIRECTED)[0]
    assert len(rows) == len(set(darts for darts, _ in rows)) == 2 * 48
    assert not any(D.has_arc(*ends) for _, ends in rows)


def test_brute_strong_is_zero(triangle):
    rep = sv.brute_solve(triangle, 2)
    assert rep.verdict and rep.optimum == 0 and rep.witness.arcs == ()


def test_brute_alternating_square(alternating_square):
    # fixing both sources needs antiparallel additions, impossible while
    # staying oriented; with digons allowed two arcs suffice
    assert not sv.brute_solve(alternating_square, 3).verdict
    rep = sv.brute_solve(alternating_square, 3, mode="directed")
    assert rep.verdict and rep.optimum == 2


def test_brute_guard():
    D = pog_io.gen_random(8, 10, 0)
    with pytest.raises(BudgetTooLargeForOracle):
        sv.brute_solve(D, 5)


def test_solvers_reject_disconnected():
    D = pg.build(3, [(0, 1)], [(0,), (1,), ()])
    with pytest.raises(Disconnected):
        sv.solve_oriented(D, 1)
    with pytest.raises(Disconnected):
        sv.solve_directed(D, 1)


@pytest.mark.parametrize("solve", [
    lambda D: sv.solve_oriented(D, -1),
    lambda D: sv.solve_directed(D, -1),
    lambda D: sv.brute_solve(D, -1),
    # with one-member lists, no trial ran into math.log1p(-1)
    lambda D: sv.solve_oriented(D, 3, method="montecarlo", trials=0),
    # a typo ran Monte-Carlo with default_trials(3), about 1e9 trials
    lambda D: sv.solve_oriented(D, 3, method="exhaustiv"),
], ids=["oriented-k", "directed-k", "brute-k", "trials", "method"])
def test_bad_parameters_are_rejected(triangle, simple_square, solve):
    # a strong graph answered a negative budget with optimum 0 > k
    for D in (triangle, simple_square):
        with pytest.raises(InfeasibleParameters):
            solve(D)


def test_agreement_on_tiny_corpus():
    for D in ep.oriented_corpus(4):
        b = sv.brute_solve(D, 3)
        bd = sv.brute_solve(D, 3, mode="directed")
        for k in (3, 2, 1, 0):
            r = sv.solve_oriented(D, k)
            assert r.verdict == (b.verdict and b.optimum <= k)
            if r.verdict:
                assert r.optimum == b.optimum
            rd = sv.solve_directed(D, k)
            assert rd.verdict == (bd.verdict and bd.optimum <= k)
            if rd.verdict:
                assert rd.optimum == bd.optimum


def test_monotonicity_on_sample():
    for seed in range(15):
        D = pog_io.gen_random(7, 9, seed)
        verdicts = [sv.solve_oriented(D, k).verdict for k in (0, 1, 2, 3)]
        assert verdicts == sorted(verdicts)
        verdicts = [sv.solve_directed(D, k).verdict for k in (0, 1, 2, 3)]
        assert verdicts == sorted(verdicts)


def test_montecarlo_yes_is_certified():
    hits = 0
    for seed in range(30):
        D = pog_io.gen_random(7, 8, seed)
        rep = sv.solve_oriented(D, 2, method="montecarlo", trials=40, seed=seed)
        if rep.verdict:
            hits += 1
            ok, diag = sv.verify_solution(D, rep.witness)
            assert ok, diag
            assert rep.stats.seed == seed
    assert hits > 0


def test_montecarlo_deterministic_per_seed():
    D = pog_io.gen_random(8, 10, 4)
    a = sv.solve_oriented(D, 2, method="montecarlo", trials=25, seed=11)
    b = sv.solve_oriented(D, 2, method="montecarlo", trials=25, seed=11)
    assert a.verdict == b.verdict and a.optimum == b.optimum
    if a.verdict:
        assert a.witness.key() == b.witness.key()


def test_montecarlo_default_trials_stops_at_terminal_floor():
    # optimum 2 meets the Eswaran-Tarjan floor of its only branch, so no
    # further trial can improve on the first success
    D = ep.oriented_corpus(5)[177]
    rep = sv.solve_oriented(D, 3, method="montecarlo", seed=1)
    assert rep.verdict and rep.optimum == 2
    assert rep.stats.trials <= 5
    assert sv.solve_oriented(D, 3).optimum == 2


def test_montecarlo_computes_levels_once(monkeypatch):
    # the budgets of a Monte-Carlo solve do not depend on the trial
    calls = 0
    levels = sv._levels

    def counted(*args):
        nonlocal calls
        calls += 1
        return levels(*args)

    monkeypatch.setattr(sv, "_levels", counted)
    D = pog_io.parse_pog((DATA / "planted_multi_12.pog").read_text())
    rep = sv.solve_oriented(D, 3, method="montecarlo", trials=2000, seed=0)
    assert rep.verdict and rep.stats.trials == 2000
    assert calls == 1


def test_montecarlo_agrees_with_exhaustive_under_default_trials(random78):
    for D in ep.oriented_corpus(5)[::27] + [random78(i) for i in range(150)]:
        mc = sv.solve_oriented(D, 3, method="montecarlo", seed=0)
        ex = sv.solve_oriented(D, 3)
        assert (mc.verdict, mc.optimum) == (ex.verdict, ex.optimum)


def test_montecarlo_no_is_exact_when_nothing_was_sampled(alternating_square):
    # no simple faces: every branch is decided without sampling
    rep = sv.solve_oriented(alternating_square, 2, method="montecarlo")
    assert not rep.verdict and rep.stats.trials == 0
    assert rep.stats.no_confidence == 1.0
    # four candidate assignments, all walked since trials allow it
    D = ep.oriented_corpus(5)[42]
    rep = sv.solve_oriented(D, 1, method="montecarlo", trials=10, seed=0)
    assert not rep.verdict and rep.stats.trials == 4
    assert rep.stats.no_confidence == 1.0
    assert not sv.solve_oriented(D, 1).verdict


def test_montecarlo_no_confidence_when_sampled():
    D = ep.oriented_corpus(5)[42]
    rep = sv.solve_oriented(D, 1, method="montecarlo", trials=1, seed=0)
    assert not rep.verdict and rep.stats.trials == 1
    # one assignment of the two faces' candidate lists, of two members
    # each; a solution of one arc lies in one of them
    assert rep.stats.no_confidence == pytest.approx(1 / 2)
    # a yes and an exhaustive no carry no confidence
    assert sv.solve_oriented(D, 2, method="montecarlo", seed=0).stats.no_confidence is None
    assert sv.solve_oriented(D, 1).stats.no_confidence is None


def test_montecarlo_no_confidence_keeps_tiny_p():
    # at k = 6 the solution may touch both two-member lists: p = 1/4.  One
    # trial searches one assignment at every budget, so whether it answers
    # depends on the seed: the optimum 2 lies in some assignments only
    D = ep.oriented_corpus(5)[42]
    nos = 0
    for seed in range(20):
        rep = sv.solve_oriented(D, 6, method="montecarlo", trials=1,
                                seed=seed)
        if rep.verdict:
            assert rep.optimum == 2
            ok, diag = sv.verify_solution(D, rep.witness)
            assert ok, diag
        else:
            nos += 1
            assert rep.stats.trials == 1
            assert rep.stats.no_confidence == pytest.approx(1 / 4)
    assert nos > 0


def test_sampling_confidence_takes_the_longest_lists():
    # 1 - (1 - p)^trials rounds to 0.0 once p drops below 1.1e-16
    p = 1e-6 ** 3
    assert sv.sampling_confidence(1, [10 ** 6] * 4 + [2], 3) == pytest.approx(p)
    assert sv.sampling_confidence(1, [10 ** 6] * 4 + [2], 3) > 0
    assert sv.sampling_confidence(10, [3, 700, 5], 2) == pytest.approx(
        1 - (1 - 1 / 3500) ** 10)
    # fewer lists than k: every list counts once
    assert sv.sampling_confidence(1, [23968, 2], 3) == pytest.approx(
        1 / 47936)


def test_default_trials_is_exact_past_the_float_range():
    assert sv.default_trials(3) == 1_027_536_170
    # 700^k no longer fits a float from k = 109 on
    assert isinstance(sv.default_trials(200), int)
    assert sv.default_trials(200) > sv.PINNED_SIMPLE_CANDIDATE_BOUND ** 200


def test_montecarlo_huge_budget_is_capped_by_the_planarity_room():
    # the default trials count the largest budget planarity leaves, not
    # 700^k: at k = 10^8 that power alone never finished
    D = pog_io.gen_random(10, 9, seed=375)
    start = time.perf_counter()
    big = sv.solve_oriented(D, 10 ** 8, method="montecarlo", seed=0)
    assert time.perf_counter() - start < 1
    small = sv.solve_oriented(D, 200, method="montecarlo", seed=0)
    assert (big.verdict, big.optimum, big.stats.trials) == (
        small.verdict, small.optimum, small.stats.trials)
    assert big.witness.key() == small.witness.key()


def test_exhaustive_accepts_huge_budget(alternating_square):
    # the Monte-Carlo trial count is never computed in exhaustive mode
    for D in (ep.oriented_corpus(5)[177], alternating_square):
        big = sv.solve_oriented(D, 100000)
        small = sv.solve_oriented(D, 3)
        assert (big.verdict, big.optimum) == (small.verdict, small.optimum)


def test_solution_restricted_to_simple_faces_is_small():
    import collections

    from orient_augment import face_analysis as fa

    for D in ep.oriented_corpus(5)[::6]:
        rep = sv.brute_solve(D, 3)
        if not rep.verdict:
            continue
        per_face = collections.Counter(a.face for a in rep.witness.arcs)
        for f, cnt in per_face.items():
            if fa.decompose_face(D, f).local_terminal_count == 2:
                assert cnt <= 3


def test_report_json_shape(path3):
    rep = sv.solve_oriented(path3, 1)
    data = rep.to_json_dict()
    assert data["verdict"] == "yes" and data["optimum"] == 1
    arc = data["witness"][0]
    assert set(arc) == {"face", "tail", "head"}
    assert set(arc["tail"]) == {"vertex", "position"}


def test_solver_witnesses_survive_reconfiguration():
    from orient_augment import reconfigure as rc

    for seed in range(12):
        D = pog_io.gen_random(7, 9, seed + 40)
        rep = sv.solve_oriented(D, 3)
        if not rep.verdict or rep.optimum == 0:
            continue
        sup = rc.to_supported(D, rep.witness)
        assert len(sup.arcs) == rep.optimum
        ok, diag = sv.verify_solution(D, sup)
        assert ok, diag


def test_condensation_contrast():
    """Contracting a strong component can destroy oriented solvability:
    this instance (a directed triangle with a pendant arc) has an oriented
    solution, its condensation has none, and the digon-allowed solver is
    unaffected either way."""
    from orient_augment import strongconn as sc

    D = pg.build(
        4,
        [(0, 1), (2, 0), (1, 2), (0, 3)],
        [(3, 6, 0), (4, 1), (5, 2), (7,)],
    )
    assert sv.brute_solve(D, 3).optimum == 1
    assert sv.solve_oriented(D, 3).optimum == 1
    cond = sc.condense(D).condensed
    assert not sv.brute_solve(cond, 3).verdict
    assert sv.solve_directed(D, 3).optimum == 1


@pytest.mark.parametrize("solve", [sv.solve_oriented, sv.solve_directed])
def test_large_budget_costs_what_the_optimum_costs(alternating_octagon, solve):
    # iterative deepening stops at the optimum, so raising k past it adds
    # no search node; no outcome is kept, so solving the same graph again
    # runs the same search to the same witness
    at_opt = solve(alternating_octagon, 4)
    at_large = solve(alternating_octagon, 100)
    again = solve(alternating_octagon, 4)
    assert at_opt.optimum == at_large.optimum == again.optimum == 4
    assert (at_opt.stats.search_nodes == at_large.stats.search_nodes
            == again.stats.search_nodes > 0)
    assert (at_opt.witness.key() == at_large.witness.key()
            == again.witness.key())
    assert at_opt.stats.branches == at_large.stats.branches == 0


@pytest.mark.parametrize("n, m, seed", [(10, 9, 375), (12, 14, 2)])
@pytest.mark.parametrize("solve", [sv.solve_oriented, sv.solve_directed])
def test_sparse_no_instances_enumerate_no_branch(n, m, seed, solve):
    # both sparse graphs have more terminal components on one side than
    # k = 3, so the Eswaran-Tarjan floor answers before any search
    rep = solve(pog_io.gen_random(n, m, seed=seed), 3)
    assert not rep.verdict and rep.optimum is None
    assert rep.stats.branches == 0
    assert rep.stats.search_nodes == 0


DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("name, removed", [
    ("planted_multi_7.pog", 3), ("planted_multi_12.pog", 2),
])
@pytest.mark.parametrize("solve", [sv.solve_oriented, sv.solve_directed])
def test_many_open_simple_faces(name, removed, solve):
    # a strong n = 57 graph less `removed` arcs, whose 10 and 12 open faces
    # are all simple: the simple-face search does all of the work
    text = (DATA / name).read_text()
    D = pog_io.parse_pog(text)
    assert len(fa.simple_faces(D)) >= 8 and not fa.alternating_faces(D)
    mode = "oriented" if solve is sv.solve_oriented else "directed"
    rep = solve(D, 3)
    assert rep.verdict and rep.optimum <= removed
    ok, diag = sv.verify_solution(D, rep.witness, mode)
    assert ok, diag
    assert 0 < rep.stats.search_nodes <= 100
    below = solve(pog_io.parse_pog(text), rep.optimum - 1)
    assert not below.verdict
    assert below.stats.search_nodes <= 100


@pytest.mark.parametrize("name, removed", [
    ("planted_multi_7.pog", 3), ("planted_multi_12.pog", 2),
])
def test_montecarlo_on_many_open_simple_faces(name, removed):
    D = pog_io.parse_pog((DATA / name).read_text())
    for seed in range(5):
        rep = sv.solve_oriented(D, 3, method="montecarlo", trials=200,
                                seed=seed)
        assert rep.verdict and rep.optimum <= removed
        ok, diag = sv.verify_solution(D, rep.witness)
        assert ok, diag
        assert rep.stats.trials <= 200
        # a solution at the Eswaran-Tarjan floor ends the sampling
        if rep.optimum == sc.scc(D).solution_floor():
            assert rep.stats.trials < 200


def test_report_json_counts_search_nodes():
    D = pog_io.parse_pog((DATA / "planted_multi_12.pog").read_text())
    stats = sv.solve_oriented(D, 3).to_json_dict()["statistics"]
    assert stats["search_nodes"] > 0


# (instance, k, oriented, directed), each solver's answer as (verdict,
# optimum, sorted witness key), recorded when exact mode became one
# covering search over the legal arcs of the open faces.  The two-path
# cycles have two simple faces, with 20,614 supported completions each at
# length 12 and more beyond; the exact search lists none of them
WITNESS_PINS = [
    ("octagon", 3, (False, None, None), (False, None, None)),
    ("octagon", 4, (True, 4, [(0, 7, 0), (0, 15, 8), (1, 1, 10), (1, 9, 2)]),
     (True, 4, [(0, 3, 0), (0, 7, 4), (0, 11, 8), (0, 15, 12)])),
    ("planted_multi_7", 3,
     (True, 3, [(3, 5, 134), (6, 18, 78), (12, 77, 144)]),
     (True, 3, [(3, 37, 134), (6, 44, 78), (12, 77, 144)])),
    ("planted_multi_12", 3, (True, 2, [(11, 66, 92), (21, 153, 126)]),
     (True, 2, [(11, 70, 92), (21, 153, 144)])),
    (0, 3, (True, 3, [(0, 5, 10), (0, 7, 2), (0, 9, 6)]),
     (True, 3, [(0, 5, 10), (0, 7, 0), (0, 9, 0)])),
    (7, 3, (True, 3, [(0, 10, 12), (1, 19, 2), (1, 19, 4)]),
     (True, 3, [(0, 0, 12), (1, 1, 2), (1, 1, 4)])),
    (14, 3, (True, 2, [(2, 7, 18), (4, 11, 6)]), (True, 1, [(2, 7, 16)])),
    (21, 3, (True, 3, [(1, 1, 18), (1, 5, 12), (1, 9, 5)]),
     (True, 3, [(0, 7, 16), (1, 5, 18), (1, 9, 18)])),
    (28, 3, (True, 3, [(1, 5, 1), (2, 11, 2), (2, 15, 11)]),
     (True, 3, [(0, 9, 0), (1, 5, 1), (2, 11, 2)])),
    (35, 3, (False, None, None), (False, None, None)),
    (42, 3, (False, None, None), (True, 1, [(4, 15, 4)])),
    (49, 3, (False, None, None), (True, 2, [(1, 11, 32), (4, 9, 4)])),
    (56, 3, (False, None, None),
     (True, 3, [(1, 1, 2), (1, 1, 8), (3, 17, 12)])),
    (63, 3, (False, None, None),
     (True, 3, [(2, 27, 2), (5, 13, 28), (6, 23, 8)])),
    (70, 3, (True, 3, [(0, 3, 4), (0, 9, 10), (0, 11, 6)]),
     (True, 3, [(0, 3, 0), (0, 9, 10), (0, 11, 6)])),
    (77, 3, (True, 2, [(0, 0, 12), (3, 5, 14)]),
     (True, 2, [(0, 21, 12), (3, 5, 26)])),
    (84, 3, (True, 2, [(0, 4, 0), (0, 13, 4)]),
     (True, 2, [(0, 0, 4), (0, 13, 0)])),
    (91, 3, (True, 3, [(0, 3, 4), (3, 17, 23), (4, 11, 7)]),
     (True, 3, [(0, 0, 4), (3, 17, 13), (4, 11, 7)])),
    (98, 3, (False, None, None), (False, None, None)),
    (105, 3, (False, None, None),
     (True, 3, [(0, 0, 8), (1, 1, 6), (1, 3, 10)])),
    (112, 3, (False, None, None), (True, 1, [(4, 13, 4)])),
    (119, 3, (False, None, None), (False, None, None)),
    (126, 3, (True, 2, [(0, 7, 0), (4, 9, 11)]),
     (True, 2, [(0, 7, 4), (4, 9, 15)])),
    (133, 3, (False, None, None), (True, 1, [(2, 2, 4)])),
    (140, 3, (True, 3, [(0, 1, 6), (0, 3, 8), (0, 5, 10)]),
     (True, 3, [(0, 1, 6), (0, 3, 8), (0, 5, 10)])),
    (147, 3, (True, 1, [(0, 13, 18)]), (True, 1, [(0, 13, 0)])),
    ("two-path 12", 3, (True, 1, [(0, 13, 0)]), (True, 1, [(0, 13, 0)])),
    ("two-path 20", 3, (True, 1, [(0, 21, 0)]), (True, 1, [(0, 21, 0)])),
    ("two-path 32", 3, (True, 1, [(0, 33, 0)]), (True, 1, [(0, 33, 0)])),
    ("gen_random 14 13 1", 7,
     (True, 6, [(0, 0, 24), (0, 3, 20), (0, 13, 16), (0, 15, 18), (0, 16, 22),
                (0, 17, 4)]),
     (True, 6, [(0, 0, 20), (0, 0, 24), (0, 3, 18), (0, 13, 22), (0, 15, 16),
                (0, 17, 4)])),
    ("gen_random 30 39 2", 8, (False, None, None), (False, None, None)),
]


@pytest.mark.parametrize("name, k, oriented, directed", WITNESS_PINS)
def test_exact_witnesses_are_pinned(alternating_octagon, random78, cycle, name,
                                    k, oriented, directed):
    if name == "octagon":
        D = alternating_octagon
    elif isinstance(name, int):
        D = random78(name)
    elif name.startswith("two-path"):
        half = int(name.split()[1]) // 2
        D = cycle([True] * half + [False] * half)
    elif name.startswith("gen_random"):
        n, m, seed = map(int, name.split()[1:])
        D = pog_io.gen_random(n, m, seed=seed)
    else:
        D = pog_io.parse_pog((DATA / f"{name}.pog").read_text())
    for solve, pinned in ((sv.solve_oriented, oriented),
                          (sv.solve_directed, directed)):
        rep = solve(D, k)
        key = None if rep.witness is None else sorted(rep.witness.key())
        assert (rep.verdict, rep.optimum, key) == pinned
