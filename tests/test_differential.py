"""Both branching solvers against the brute-force oracle past its default
limits: 100 seeded random plane graphs at n = 9-16, every budget k <= 3."""

import pytest

from orient_augment import face_analysis as fa
from orient_augment import pog_io
from orient_augment import solvers as sv


def graphs():
    out = []
    for i in range(100):
        n = 9 + i % 8
        m = n + 3 + (i * 7919) % (n - 4)
        out.append(pog_io.write_pog(pog_io.gen_random(n, m, seed=5000 + i)))
    return out


TEXTS = graphs()


def test_instances_have_several_simple_faces():
    several = sum(
        len(fa.simple_faces(pog_io.parse_pog(t))) >= 2 for t in TEXTS
    )
    assert several >= 30


@pytest.mark.parametrize("mode, solve", [
    ("oriented", sv.solve_oriented), ("directed", sv.solve_directed),
])
def test_solvers_agree_with_oracle(mode, solve):
    yes = 0
    for text in TEXTS:
        want = sv.brute_solve(pog_io.parse_pog(text), 3, mode=mode,
                              limits=(16, 3))
        yes += want.verdict
        for k in (3, 2, 1, 0):
            D = pog_io.parse_pog(text)  # afresh: no earlier outcome answers
            rep = solve(D, k)
            assert rep.verdict == (want.verdict and want.optimum <= k), (text, k)
            if rep.verdict:
                assert rep.optimum == want.optimum
                ok, diag = sv.verify_solution(D, rep.witness, mode)
                assert ok, diag
    assert yes >= 20
