"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run with ``pytest -s`` to see them live).

The exhaustive family is every connected plane oriented graph with at most
six vertices, enumerated as embeddings and deduplicated up to isomorphism
and reflection, plus 500 seeded random instances on seven and eight
vertices.
"""

import itertools
import math
import time

import pytest

from orient_augment import completion_enum as ce
from orient_augment import dijoin as dj
from orient_augment import enumerate_plane as ep
from orient_augment import face_analysis as fa
from orient_augment import hardness as hg
from orient_augment import plane_graph as pg
from orient_augment import pog_io
from orient_augment import reconfigure as rc
from orient_augment import solvers as sv
from orient_augment import strongconn as sc

from rowview import simple_face_rows

MINUTES_BUDGET = 15 * 60


@pytest.fixture(scope="session")
def corpus():
    return ep.oriented_corpus(6)


@pytest.fixture(scope="session")
def random_instances():
    out = []
    for i in range(500):
        n = 7 + (i % 2)
        m = (n - 1) + (i * 7919) % (3 * n - 6 - (n - 1) + 1)
        out.append(pog_io.gen_random(n, m, seed=1000 + i))
    return out


@pytest.fixture(scope="session")
def brute_oriented(corpus, random_instances):
    return [sv.brute_solve(D, 3) for D in corpus + random_instances]


@pytest.fixture(scope="session")
def brute_directed(corpus, random_instances):
    return [
        sv.brute_solve(D, 3, mode="directed")
        for D in corpus + random_instances
    ]


def test_criterion_1_oracle_equivalence_oriented(
    corpus, random_instances, brute_oriented
):
    t0 = time.time()
    instances = corpus + random_instances
    mismatches = 0
    for D, b in zip(instances, brute_oriented):
        for k in (3, 2, 1, 0):
            r = sv.solve_oriented(D, k)
            expect = b.verdict and b.optimum <= k
            if r.verdict != expect or (r.verdict and r.optimum != b.optimum):
                mismatches += 1
    elapsed = time.time() - t0
    status = "PASS" if mismatches == 0 and elapsed < MINUTES_BUDGET else "FAIL"
    print(
        f"\n{status} criterion 1: oriented oracle agreement on "
        f"{len(instances)} instances x k in 0..3, {mismatches} mismatches, "
        f"{elapsed:.0f}s"
    )
    assert mismatches == 0
    assert elapsed < MINUTES_BUDGET


def test_criterion_2_oracle_equivalence_directed(
    corpus, random_instances, brute_directed
):
    t0 = time.time()
    instances = corpus + random_instances
    mismatches = 0
    for D, b in zip(instances, brute_directed):
        for k in (3, 2, 1, 0):
            r = sv.solve_directed(D, k)
            expect = b.verdict and b.optimum <= k
            if r.verdict != expect or (r.verdict and r.optimum != b.optimum):
                mismatches += 1
    elapsed = time.time() - t0
    status = "PASS" if mismatches == 0 and elapsed < MINUTES_BUDGET else "FAIL"
    print(
        f"\n{status} criterion 2: digon-allowed oracle agreement on "
        f"{len(instances)} instances x k in 0..3, {mismatches} mismatches, "
        f"{elapsed:.0f}s"
    )
    assert mismatches == 0
    assert elapsed < MINUTES_BUDGET


def test_criterion_3_montecarlo_soundness_and_power(corpus, brute_oriented):
    # soundness: a yes answer is always a certified solution, so it can
    # never contradict the oracle
    false_positives = 0
    for D, b in zip(corpus[::9], brute_oriented[::9]):
        rep = sv.solve_oriented(D, 2, method="montecarlo", trials=8, seed=5)
        if rep.verdict:
            ok, _ = sv.verify_solution(D, rep.witness)
            if not ok or not (b.verdict and b.optimum <= 2):
                false_positives += 1
    # power: known-yes instances at k=1 with the pinned trial budget
    known_yes = [
        D
        for D, b in zip(corpus, brute_oriented)
        if b.verdict and b.optimum == 1
    ][::997][:5]
    assert len(known_yes) >= 3
    trials = math.ceil(
        sv.PINNED_SIMPLE_CANDIDATE_BOUND ** 1 * math.log(20)
    )
    successes = runs = 0
    for D in known_yes:
        for seed in range(100):
            runs += 1
            rep = sv.solve_oriented(
                D, 1, method="montecarlo", trials=trials, seed=seed
            )
            if rep.verdict and rep.optimum == 1:
                successes += 1
    rate = successes / runs
    status = "PASS" if false_positives == 0 and rate >= 0.90 else "FAIL"
    print(
        f"\n{status} criterion 3: montecarlo 0 false positives "
        f"({false_positives}), success rate {rate:.3f} over {runs} seeded "
        f"runs with trials={trials}"
    )
    assert false_positives == 0
    assert rate >= 0.90


def test_criterion_4_counting_checks():
    catalan_ok = [len(ce.triangulations(m)) for m in (4, 5, 6, 7, 8)] == [
        2, 5, 14, 42, 132,
    ]
    violations = 0
    faces_checked = 0
    seed = 0
    while faces_checked < 1000:
        seed += 1
        n = 5 + seed % 4
        m = (n - 1) + seed % (3 * n - 6 - (n - 1) + 1)
        D = pog_io.gen_random(n, m, seed)
        for f in range(D.f):
            faces_checked += 1
            dec = fa.decompose_face(D, f)
            for iv in dec.intervals():
                for q in range(1, 7):
                    for fam in (
                        sp_left(D, iv, q),
                        sp_right(D, iv, q),
                    ):
                        if len(fam) > 3 * 2 ** (q - 1):
                            violations += 1
    status = "PASS" if catalan_ok and violations == 0 else "FAIL"
    print(
        f"\n{status} criterion 4: skeleton counts {catalan_ok and 'exact'}, "
        f"support-size violations {violations} over {faces_checked} faces"
    )
    assert catalan_ok
    assert violations == 0


def sp_left(D, iv, q):
    from orient_augment import supports

    return supports.left_supports(D, iv, q)


def sp_right(D, iv, q):
    from orient_augment import supports

    return supports.right_supports(D, iv, q)


def test_criterion_5_census_identities(corpus, brute_oriented):
    census_bad = dag_bad = filter_bad = 0
    for seed in range(1000):
        n = 5 + seed % 4
        m = (n - 1) + seed % (3 * n - 6 - (n - 1) + 1)
        D = pog_io.gen_random(n, m, seed)
        _, report = fa.classify_all(D)
        if report.terminal_angles + report.nonlocal_angles != 2 * D.m:
            census_bad += 1
        A = pog_io.gen_random(n, m, seed, acyclic=True)
        total = sum(
            fa.decompose_face(A, f).local_terminal_count - 2
            for f in range(A.f)
        )
        if total > 2 * sc.scc(A).terminal_count - 4:
            dag_bad += 1
    positives = 0
    for D, b in zip(corpus, brute_oriented[: len(corpus)]):
        if not b.verdict or b.optimum == 0:
            continue
        positives += 1
        k = b.optimum
        if fa.alternating_terminal_sum(D) >= 8 * k:
            filter_bad += 1
        if sc.scc(D).terminal_count > 2 * k:
            filter_bad += 1
    status = (
        "PASS" if census_bad == dag_bad == filter_bad == 0 else "FAIL"
    )
    print(
        f"\n{status} criterion 5: census exact on 1000 graphs "
        f"({census_bad} bad), DAG bound on 1000 ({dag_bad} bad), "
        f"positive-instance filters on {positives} instances "
        f"({filter_bad} bad)"
    )
    assert census_bad == 0 and dag_bad == 0 and filter_bad == 0


def test_criterion_6_structural_theorems(corpus, brute_oriented):
    t0 = time.time()
    reconfigured = failures = big_restrictions = 0
    for D, b in zip(corpus, brute_oriented[: len(corpus)]):
        if not b.verdict or b.optimum == 0:
            continue
        import collections

        per_face = collections.Counter(a.face for a in b.witness.arcs)
        for f, cnt in per_face.items():
            if fa.decompose_face(D, f).local_terminal_count == 2 and cnt > 3:
                big_restrictions += 1
        sup = rc.to_supported(D, b.witness)
        reconfigured += 1
        ok, _ = sv.verify_solution(D, sup)
        if (
            not ok
            or len(sup.arcs) != b.optimum
            or not ce.is_supported(D, sup)
        ):
            failures += 1
    status = "PASS" if failures == 0 and big_restrictions == 0 else "FAIL"
    print(
        f"\n{status} criterion 6: {reconfigured} brute minima reconfigured "
        f"to equal-size supported solutions, {failures} failures, "
        f"{big_restrictions} oversized simple-face restrictions, "
        f"{time.time() - t0:.0f}s"
    )
    assert failures == 0
    assert big_restrictions == 0


def all_tiny_formulas():
    out = []
    for pols in itertools.product([True, False], repeat=3):
        out.append((3, [list(zip((0, 1, 2), pols))]))
    for pols1 in itertools.product([True, False], repeat=3):
        for pols2 in itertools.product([True, False], repeat=3):
            out.append(
                (3, [list(zip((0, 1, 2), pols1)), list(zip((0, 1, 2), pols2))])
            )
            out.append(
                (4, [list(zip((0, 1, 2), pols1)), list(zip((1, 2, 3), pols2))])
            )
    return out


def test_criterion_7_hardness_reduction():
    t0 = time.time()
    checked = failures = 0
    worst_ratio = 0.0
    for n_vars, clauses in all_tiny_formulas():
        rots = hg.find_rotations(n_vars, clauses)
        if not rots:
            failures += 1
            continue
        phi = rots[0]
        sat = [
            a
            for a in itertools.product([False, True], repeat=n_vars)
            if all(any(a[v] == p for v, p in c) for c in phi.clauses)
        ]
        # with at most two 3-literal clauses over distinct variables,
        # satisfiability always holds; equivalence is witnessed
        # constructively
        if not sat:
            failures += 1
            continue
        inst = hg.reduce_formula(phi)
        padded = hg.pad_formula(phi)
        occ = sum(len(c) for c in padded.clauses)
        worst_ratio = max(
            worst_ratio, inst.graph.n / (occ + len(padded.clauses))
        )
        X = hg.assignment_to_augmentation(phi, inst, list(sat[0]))
        ok, _ = sv.verify_solution(inst.graph, X)
        checked += 1
        if not ok:
            failures += 1

    # gadget censuses
    lit = hg.literal_gadget()
    from tests.test_hardness import completions_hitting

    P = lit.ports
    need = [P["b"], P["l"], P["r"]]
    census = (
        len(completions_hitting(lit.graph, need, [P["br"]])),
        len(completions_hitting(lit.graph, need, [P["bl"]])),
    )
    cl = sc.scc(hg.clause_gadget().graph)
    clause_census = (
        sorted(len(cl.members[c]) for c in cl.sources),
        sorted(len(cl.members[c]) for c in cl.sinks),
    )
    ok_censuses = census == (2, 2) and clause_census == ([3], [4, 4, 4])
    ok_linear = worst_ratio <= 9.0
    status = (
        "PASS"
        if failures == 0 and ok_censuses and ok_linear
        else "FAIL"
    )
    print(
        f"\n{status} criterion 7: {checked} formulas verified "
        f"({failures} failures), literal census {census}, clause census "
        f"{clause_census}, linearity constant {worst_ratio:.2f} <= 9, "
        f"{time.time() - t0:.0f}s"
    )
    assert failures == 0
    assert ok_censuses
    assert ok_linear


def all_small_digraphs():
    """Every weakly connected loop-free digraph on 2..4 vertices with at
    most 8 arcs, by labelled enumeration."""
    out = []
    for n in (2, 3, 4):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(pairs)):
            if bin(mask).count("1") > 8:
                continue
            arcs = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            if arcs and _weakly_connected(n, arcs):
                out.append(dj.Digraph(n, arcs))
    return out


def _weakly_connected(n, arcs):
    seen = {arcs[0][0]}
    changed = True
    while changed:
        changed = False
        for u, v in arcs:
            if (u in seen) != (v in seen):
                seen |= {u, v}
                changed = True
    return len(seen) == n


def test_criterion_8_dijoin_correctness(corpus, brute_oriented):
    t0 = time.time()
    graphs = all_small_digraphs()
    mismatches = 0
    for g in graphs:
        for k in (0, 1, 2, 3):
            got = dj.min_dijoin_upto(g, k)
            want = None
            for size in range(k + 1):
                hit = False
                for sub in itertools.combinations(range(len(g.arcs)), size):
                    if dj.is_dijoin(g, sub):
                        want = size
                        hit = True
                        break
                if hit:
                    break
            if (got is None) != (want is None):
                mismatches += 1
            elif got is not None and len(got) != want:
                mismatches += 1

    # allowed-arc reduction equivalence on tiny scenarios
    equiv_bad = equiv_n = 0
    for D, b in zip(corpus[::17], brute_oriented[::17]):
        if D.n > 7:
            continue
        sfaces = fa.simple_faces(D)
        if not sfaces:
            continue
        allowed = {}
        for f in sfaces[:2]:
            rows = simple_face_rows(D, f)
            if rows:
                allowed[f] = D.completion_from_darts(
                    [d for d, _ in rows[0]])
        if not allowed:
            continue
        for k in (1, 2):
            inst = dj.build_auxiliary(D, allowed, k)
            y = dj.min_dijoin_upto(inst.graph, inst.budget, inst.reversible)
            want = _brute_allowed(D, allowed, k)
            equiv_n += 1
            if want is None:
                if y is not None and len(y) <= k:
                    equiv_bad += 1
            else:
                if y is None or len(y) != want:
                    equiv_bad += 1
                else:
                    ext = dj.extract_solution(inst, y)
                    ok, _ = sv.verify_solution(D, ext)
                    if not ok:
                        equiv_bad += 1
    status = "PASS" if mismatches == 0 and equiv_bad == 0 else "FAIL"
    print(
        f"\n{status} criterion 8: dijoin vs subset brute on "
        f"{len(graphs)} digraphs ({mismatches} mismatches), reduction "
        f"equivalence on {equiv_n} scenarios ({equiv_bad} bad), "
        f"{time.time() - t0:.0f}s"
    )
    assert mismatches == 0
    assert equiv_bad == 0


def _brute_allowed(D, allowed, k):
    arcs = [
        (a.tail.dart, a.head.dart)
        for comp in allowed.values()
        for a in comp.arcs
    ]
    for size in range(k + 1):
        for sub in itertools.combinations(arcs, size):
            try:
                D2 = pg.insert_arcs(D, list(sub))
            except Exception:
                continue
            if sc.is_strong(D2):
                return size
    return None


def test_pinned_candidate_constant(corpus):
    worst = 0
    for D in corpus[::3]:
        for f in fa.simple_faces(D):
            worst = max(worst, len(simple_face_rows(D, f)))
    print(f"\nINFO pinned candidate bound: measured {worst} <= "
          f"{sv.PINNED_SIMPLE_CANDIDATE_BOUND}")
    assert worst <= sv.PINNED_SIMPLE_CANDIDATE_BOUND
