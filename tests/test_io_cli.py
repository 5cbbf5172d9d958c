import json
import tracemalloc

import pytest

from orient_augment import cli
from orient_augment import hardness as hg
from orient_augment import plane_graph as pg
from orient_augment import pog_io
from orient_augment import solvers as sv
from orient_augment.errors import (DuplicateArcEnd, InfeasibleParameters,
                                   ModeViolation, NonSphericalEmbedding,
                                   ParseError)


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
    [("a 1 0 x", 3), ("a z 0 2", 3), ("r q 0+", 4), ("pog weird 3 2", 1),
     ("pog oriented 3 -1", 1), ("pog oriented -1 2", 1)],
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


@pytest.mark.parametrize(
    "bad_line, line_no, field",
    [("a 0 0 9", 2, 4), ("a 1 -1 2", 3, 3), ("r 1 5-", 5, 3),
     ("r 1 0- 2+", 5, 4), ("r 0 -1+", 4, 3)],
)
def test_out_of_range_id_is_typed_parse_error(tmp_path, capsys, bad_line,
                                              line_no, field):
    lines = ["pog oriented 3 2", "a 0 0 1", "a 1 1 2", "r 0 0+", "r 1 0- 1+", "r 2 1-"]
    lines[line_no - 1] = bad_line
    text = "\n".join(lines) + "\n"
    with pytest.raises(ParseError, match=f"line {line_no}, field {field}: "):
        pog_io.parse_pog(text)
    f = tmp_path / "bad.pog"
    f.write_text(text)
    assert cli.main(["solve", str(f), "-k", "1"]) == 2
    assert f"line {line_no}, field {field}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_line, line_no, message",
    [("r 1 0- +", 5, "line 5: bad end token '+'"),
     ("r 1 0- 3x", 5, "line 5: bad end token '3x'"),
     ("r 1 -1+ 1+", 5, "line 5, field 3: arc -1 not in 0..1"),
     ("r 1 0- 1+ 0-", 5, "line 5, field 5: arc end 0- repeated"),
     ("r 2 1- 0-", 6, "line 6, field 4: arc end 0- repeated")],
)
def test_bad_end_token_message_is_exact(bad_line, line_no, message):
    lines = ["pog oriented 3 2", "a 0 0 1", "a 1 1 2", "r 0 0+", "r 1 0- 1+", "r 2 1-"]
    lines[line_no - 1] = bad_line
    with pytest.raises(ParseError) as err:
        pog_io.parse_pog("\n".join(lines) + "\n")
    assert str(err.value) == message


@pytest.mark.parametrize(
    "header", ["pog oriented 4611686018427387904 0",
               "pog oriented 3 99999999999999999999999"])
def test_header_counts_beyond_the_text_are_parse_errors(tmp_path, capsys,
                                                        header):
    text = header + "\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="line 1: "):
            pog_io.parse_pog(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # nothing sized by the header was allocated
    f = tmp_path / "huge.pog"
    f.write_text(text)
    assert cli.main(["solve", str(f), "-k", "1"]) == 2
    assert "line 1: " in capsys.readouterr().err


DIMACS_OK = ["p cnf 3 1", "1 -2 -3 0", "rotv 1 1", "rotv 2 1", "rotv 3 1"]


@pytest.mark.parametrize(
    "bad_line, line_no",
    [("p cnf x 1", 1), ("rotv a 1", 3), ("1 b 3 0", 2), ("1 -2 5 0", 2),
     ("rotv", 5), ("rotv 9 1", 6), ("rotc 2 1 2 3", 6), ("rotc 1 1 2 9", 6)],
)
def test_bad_dimacs_is_typed_parse_error(tmp_path, capsys, bad_line, line_no):
    lines = DIMACS_OK + [""]
    lines[line_no - 1] = bad_line
    text = "\n".join(lines) + "\n"
    with pytest.raises(ParseError, match=f"line {line_no}"):
        hg.parse_dimacs(text)
    f = tmp_path / "bad.cnf"
    f.write_text(text)
    assert cli.main(["gen-hard", str(f)]) == 2
    assert f"line {line_no}" in capsys.readouterr().err


def test_parse_forwards_mode_violation():
    from orient_augment.errors import ModeViolation

    digon = "pog oriented 2 2\na 0 0 1\na 1 1 0\nr 0 0+ 1-\nr 1 1+ 0-\n"
    with pytest.raises(ModeViolation):
        pog_io.parse_pog(digon)


@pytest.mark.parametrize("text, error, message", [
    ("pog oriented 2 1\na 0 0 1\nr 0 0-\nr 1 0+\n", DuplicateArcEnd,
     "line 3, field 3: arc end 1 listed at vertex 0, belongs to 1"),
    ("pog oriented 3 2\na 0 0 1\na 1 1 2\nr 0 0+\nr 1 0- 1+ 1-\nr 2\n",
     DuplicateArcEnd, "line 5, field 5: arc end 3 listed at vertex 1, "
                      "belongs to 2"),
    ("pog oriented 2 1\na 0 0 1\nr 0 0+\nr 1\n", DuplicateArcEnd,
     "line 2, field 4: arc ends missing from rotations: [1]"),
    ("pog oriented 2 1\n# tail end unlisted\na 0 0 1\n\nr 1 0-\n",
     DuplicateArcEnd, "line 3, field 3: arc ends missing from rotations: [0]"),
    ("pog oriented 2 1\na 0 0 0\nr 0 0+ 0-\nr 1\n", ModeViolation,
     "line 2: loop at vertex 0 is illegal in mode oriented"),
    ("pog directed 2 2\na 0 0 1\na 1 0 1\nr 0 0+ 1+\nr 1 1- 0-\n",
     ModeViolation, "line 3: parallel arcs 0->1 in mode directed"),
    # arc lines out of id order: the digon's second arc in id order is 1
    ("pog oriented 3 3\na 2 0 1\na 0 1 2\na 1 2 1\nr 1 2- 0+ 1-\nr 0 2+\n"
     "r 2 0- 1+\n", ModeViolation, "line 4: digon between 2 and 1 in "
                                   "oriented mode"),
    ("pog oriented 3 2\n# c\na 1 1 2\nr 0\nr 1 1+\nr 2 1-\n", ParseError,
     "line 1, field 4: missing arc lines for ids [0]"),
    # a torus bouquet: the rings as a whole fail, named by the first r line
    ("pog multi 1 2\na 0 0 0\na 1 0 0\nr 0 0+ 1+ 0- 1-\n",
     NonSphericalEmbedding, "line 4: Euler characteristic 0 != 2"),
    # K4 with the ring at vertex 3 reversed, its r line first
    ("pog oriented 4 6\na 0 0 1\na 1 1 2\na 2 2 0\na 3 0 3\na 4 1 3\n"
     "a 5 2 3\nr 3 5- 4- 3-\nr 0 0+ 3+ 2-\nr 1 1+ 4+ 0-\nr 2 2+ 5+ 1-\n",
     NonSphericalEmbedding, "line 8: Euler characteristic 0 != 2"),
])
def test_build_errors_name_the_line(tmp_path, capsys, text, error, message):
    with pytest.raises(error) as err:
        pog_io.parse_pog(text)
    assert type(err.value) is error and str(err.value) == message
    f = tmp_path / "bad.pog"
    f.write_text(text)
    assert cli.main(["solve", str(f), "-k", "1"]) == 2
    assert message in capsys.readouterr().err


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


def test_report_and_witness_file_write_the_same_arcs(path3):
    for D, k in ((path3, 1), (pog_io.gen_random(8, 9, seed=0), 3)):
        rep = sv.solve_oriented(D, k)
        assert rep.verdict and rep.witness.arcs
        assert rep.to_json_dict()["witness"] == json.loads(
            pog_io.completion_to_json(rep.witness))["arcs"]


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


def run_verify(tmp_path, capsys, D, chords, *mode):
    """Exit code and output of ``verify`` on the witness whose arcs join
    the given vertices, at their last angles on the boundary of face 0."""
    at = {D.dart_vertex(d): d for d in D.faces[0]}
    comp = D.completion_from_darts([(at[u], at[v]) for u, v in chords])
    graph_file = tmp_path / "g.pog"
    graph_file.write_text(pog_io.write_pog(D))
    wit_file = tmp_path / "w.json"
    wit_file.write_text(pog_io.completion_to_json(comp))
    rc = cli.main(["verify", str(graph_file), str(wit_file), *mode])
    return rc, capsys.readouterr().out


def test_cli_verify_valid(tmp_path, capsys, path3):
    assert run_verify(tmp_path, capsys, path3, [(2, 0)]) == (0, "valid\n")


def test_cli_verify_not_strong(tmp_path, capsys, path3):
    assert run_verify(tmp_path, capsys, path3, [(0, 2)]) == (
        1, "invalid: NotStrong: augmented graph has several components\n")


def test_cli_verify_digon_depends_on_mode(tmp_path, capsys, path3):
    # 2->1 and 1->0 reverse both host arcs: legal only where digons are
    chords = [(2, 1), (1, 0)]
    rc, out = run_verify(tmp_path, capsys, path3, chords, "--mode", "oriented")
    assert rc == 1 and out.startswith("invalid: ModeViolation: ")
    assert "forms a digon" in out
    assert run_verify(tmp_path, capsys, path3, chords,
                      "--mode", "directed") == (0, "valid\n")


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


def test_cli_output_file_matches_stdout(tmp_path, capsys):
    g = tmp_path / "g.pog"
    g.write_text(pog_io.write_pog(pog_io.gen_random(7, 8, seed=2)))
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 -2 -3 0\n")
    out = tmp_path / "out.pog"
    for argv in (["condense", str(g)], ["gen-hard", str(cnf)],
                 ["gen-random", "-n", "6", "-m", "8"]):
        assert cli.main(argv) == 0
        shown = capsys.readouterr().out
        assert shown
        assert cli.main(argv + ["-o", str(out)]) == 0
        assert out.read_text() == shown and capsys.readouterr().out == ""
    # without --seed, gen-random uses seed 0
    assert cli.main(["gen-random", "-n", "6", "-m", "8", "--seed", "0"]) == 0
    assert capsys.readouterr().out == shown


def test_cli_usage_error():
    assert cli.main(["solve"]) == 2


@pytest.mark.parametrize("command, flags", [
    ("solve", ["-k", "-1"]),
    ("solve-directed", ["-k", "-1"]),
    ("brute", ["-k", "-1"]),
    ("solve", ["-k", "3", "--mode", "montecarlo", "--trials", "0"]),
])
def test_cli_rejects_bad_parameters(tmp_path, capsys, triangle, simple_square,
                                    command, flags):
    for D in (triangle, simple_square):
        f = tmp_path / "g.pog"
        f.write_text(pog_io.write_pog(D))
        assert cli.main([command, str(f), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: " in captured.err


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


def test_cli_montecarlo_budget_past_float_range(tmp_path, capsys):
    f = tmp_path / "t.pog"
    f.write_text(pog_io.write_pog(pog_io.gen_random(10, 9, seed=375)))
    code = cli.main(["solve", str(f), "-k", "200", "--mode", "montecarlo"])
    assert code in (0, 1)
    assert capsys.readouterr().out.split()[0] in ("yes", "no")


@pytest.mark.parametrize("command", ["verify", "export-dot"])
@pytest.mark.parametrize(
    "witness",
    [
        '[{"face": 0}]',
        '{"arcs": 5}',
        '{"arcs": [{"face": 0}]}',
        '{"arcs": [{"face": "x", "tail": {}, "head": {}}]}',
        '{"arcs": [{"face": 0, "tail": {"position": 0.5}, "head": {"position": 1}}]}',
        '{"arcs": [{"face": 0, "tail": 3, "head": {"position": 1}}]}',
        '{"witness": []}',
    ],
)
def test_cli_bad_witness_shape_is_parse_error(tmp_path, capsys, path3, command, witness):
    graph_file = tmp_path / "g.pog"
    graph_file.write_text(pog_io.write_pog(path3))
    wit_file = tmp_path / "w.json"
    wit_file.write_text(witness)
    with pytest.raises(ParseError):
        pog_io.completion_from_json(path3, witness)
    args = [command, str(graph_file)]
    args += [str(wit_file)] if command == "verify" else ["--witness", str(wit_file)]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.startswith("error: witness")
