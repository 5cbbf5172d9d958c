import json

import pytest

from orient_augment import cli
from orient_augment import plane_graph as pg
from orient_augment import pog_io
from orient_augment import solvers as sv
from orient_augment.errors import InfeasibleParameters, ParseError


def test_pog_roundtrip_byte_exact(triangle):
    text = pog_io.write_pog(triangle)
    again = pog_io.parse_pog(text)
    assert pog_io.write_pog(again) == text


def test_parse_error_is_line_numbered():
    bad = "pog oriented 2 1\na 0 0 1\nr 0 0+ 0+\nr 1 0-\n"
    with pytest.raises(ParseError) as err:
        pog_io.parse_pog(bad)
    assert "line 3" in str(err.value)


@pytest.mark.parametrize(
    "bad_line, line_no",
    [("a 1 0 x", 3), ("a z 0 2", 3), ("r q 0+", 4)],
)
def test_non_integer_id_is_typed_parse_error(tmp_path, capsys, bad_line, line_no):
    lines = ["pog oriented 3 2", "a 0 0 1", "a 1 1 2", "r 0 0+", "r 1 0- 1+", "r 2 1-"]
    lines[line_no - 1] = bad_line
    text = "\n".join(lines) + "\n"
    with pytest.raises(ParseError, match=f"line {line_no}"):
        pog_io.parse_pog(text)
    f = tmp_path / "bad.pog"
    f.write_text(text)
    assert cli.main(["solve", str(f), "-k", "1"]) == 2
    assert f"line {line_no}" in capsys.readouterr().err


def test_parse_forwards_mode_violation():
    from orient_augment.errors import ModeViolation

    digon = "pog oriented 2 2\na 0 0 1\na 1 1 0\nr 0 0+ 1-\nr 1 1+ 0-\n"
    with pytest.raises(ModeViolation):
        pog_io.parse_pog(digon)


def test_gen_random_deterministic_and_valid():
    for seed in (0, 1, 7):
        a = pog_io.gen_random(8, 12, seed)
        b = pog_io.gen_random(8, 12, seed)
        assert a.arcs == b.arcs and a.rotation == b.rotation
        assert a.connected and a.euler_characteristic() == 2
    with pytest.raises(InfeasibleParameters):
        pog_io.gen_random(5, 12, 0)


def test_gen_random_triangle():
    D = pog_io.gen_random(3, 3, 5)
    assert D.n == 3 and D.m == 3
    assert sorted(len(w) for w in D.faces) == [3, 3]


def test_witness_json_roundtrip(path3):
    rep = sv.brute_solve(path3, 1)
    text = pog_io.completion_to_json(rep.witness)
    back = pog_io.completion_from_json(path3, text)
    assert back.key() == rep.witness.key()


def test_export_dot_deterministic(triangle):
    a = pog_io.export_dot(triangle)
    b = pog_io.export_dot(triangle)
    assert a == b
    assert "digraph" in a and "0 -> 1" in a


def run_cli(tmp_path, *argv):
    return cli.main(list(argv))


def test_cli_solve_paths(tmp_path, path3):
    f = tmp_path / "p.pog"
    f.write_text(pog_io.write_pog(path3))
    assert cli.main(["solve", str(f), "-k", "1"]) == 0
    assert cli.main(["solve", str(f), "-k", "0"]) == 1
    assert cli.main(["solve-directed", str(f), "-k", "1"]) == 0
    assert cli.main(["brute", str(f), "-k", "1"]) == 0
    assert cli.main(["stats", str(f)]) == 0
    assert cli.main(["export-dot", str(f)]) == 0
    assert cli.main(["condense", str(f)]) == 0


def test_cli_verify_crossing(tmp_path, simple_square, capsys):
    D = simple_square
    f0 = D.faces[0]
    verts = [D.dart_vertex(d) for d in f0]
    comp = D.completion_from_darts(
        [
            (f0[verts.index(2)], f0[verts.index(0)]),
            (f0[verts.index(1)], f0[verts.index(3)]),
        ]
    )
    graph_file = tmp_path / "g.pog"
    graph_file.write_text(pog_io.write_pog(D))
    wit_file = tmp_path / "w.json"
    wit_file.write_text(pog_io.completion_to_json(comp))
    rc = cli.main(["verify", str(graph_file), str(wit_file)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "CrossingArcs" in out


def test_cli_gen_random_and_hard(tmp_path):
    out = tmp_path / "r.pog"
    assert cli.main([
        "gen-random", "-n", "6", "-m", "8", "--seed", "3", "-o", str(out)
    ]) == 0
    D = pog_io.parse_pog(out.read_text())
    assert D.n == 6 and D.m == 8

    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 -2 -3 0\n")
    hard = tmp_path / "h.pog"
    assert cli.main(["gen-hard", str(cnf), "-o", str(hard)]) == 0
    H = pog_io.parse_pog(hard.read_text())
    assert H.mode == "oriented" and H.connected


def test_cli_usage_error():
    assert cli.main(["solve"]) == 2


def test_cli_json_report(tmp_path, path3, capsys):
    f = tmp_path / "p.pog"
    f.write_text(pog_io.write_pog(path3))
    assert cli.main(["solve", str(f), "-k", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "yes"
    assert data["witness"][0]["tail"].keys() == {"vertex", "position"}


def test_cli_json_report_montecarlo_no(tmp_path, alternating_square, capsys):
    f = tmp_path / "a.pog"
    f.write_text(pog_io.write_pog(alternating_square))
    assert cli.main(["solve", str(f), "-k", "2", "--mode", "montecarlo",
                     "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "no"
    assert 0.0 < data["statistics"]["no_confidence"] <= 1.0
