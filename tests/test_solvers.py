import pytest

from orient_augment import enumerate_plane as ep
from orient_augment import plane_graph as pg
from orient_augment import pog_io
from orient_augment import solvers as sv
from orient_augment.errors import BudgetTooLargeForOracle, Disconnected


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
    D = pg.build(3, [(0, 1)], [(0,), (1,), ()], require_sphere=False)
    with pytest.raises(Disconnected):
        sv.solve_oriented(D, 1)
    with pytest.raises(Disconnected):
        sv.solve_directed(D, 1)


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


def fresh(D):
    """A re-parsed copy, so no memo of an earlier solve answers."""
    return pog_io.parse_pog(pog_io.write_pog(D))


def test_montecarlo_default_trials_stops_at_terminal_floor():
    # optimum 2 meets the Eswaran-Tarjan floor of its only branch, so no
    # further trial can improve on the first success
    D = ep.oriented_corpus(5)[177]
    rep = sv.solve_oriented(D, 3, method="montecarlo", seed=1)
    assert rep.verdict and rep.optimum == 2
    assert rep.stats.trials <= 5
    assert sv.solve_oriented(fresh(D), 3).optimum == 2


def test_montecarlo_agrees_with_exhaustive_under_default_trials():
    for D in ep.oriented_corpus(5)[::27]:
        mc = sv.solve_oriented(fresh(D), 3, method="montecarlo", seed=0)
        ex = sv.solve_oriented(fresh(D), 3)
        assert (mc.verdict, mc.optimum) == (ex.verdict, ex.optimum)


def test_exhaustive_accepts_huge_budget(alternating_square):
    # the Monte-Carlo trial count is never computed in exhaustive mode
    for D in (ep.oriented_corpus(5)[177], alternating_square):
        big = sv.solve_oriented(fresh(D), 100000)
        small = sv.solve_oriented(fresh(D), 3)
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
