"""Fuzz tests of the three input formats: every `.pog`, witness JSON and
extended DIMACS text either parses or raises `OrientAugmentError`, and the
CLI answers every such file with exit code 0, 1 or 2, never a traceback.

Inputs are random text and valid files with a few lines or tokens edited.
The runs are derandomised, so every tier-1 run tries the same inputs."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orient_augment import cli
from orient_augment import hardness as hg
from orient_augment import pog_io
from orient_augment import solvers as sv
from orient_augment.errors import OrientAugmentError

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=300,
                suppress_health_check=[HealthCheck.too_slow])
FUZZ_CLI = settings(FUZZ, max_examples=60)

POG_SEEDS = [
    pog_io.write_pog(pog_io.gen_random(n, m, seed=s, mode=mode))
    for n, m, s, mode in [(3, 3, 1, "oriented"), (5, 6, 2, "oriented"),
                          (6, 8, 3, "oriented"), (4, 5, 4, "directed")]
] + ["pog multi 2 3\na 0 0 1\na 1 1 0\na 2 0 0\nr 0 0+ 1- 2+ 2-\nr 1 0- 1+\n"]
DIMACS_SEEDS = [
    "c one clause\np cnf 3 1\n1 -2 -3 0\nrotv 1 1\nrotv 2 1\nrotv 3 1\n",
    "p cnf 3 1\n-1 2 3 0\nrotc 1 3 2 1\n",
]
WORDS = ["a", "r", "p", "c", "pog", "cnf", "rotv", "rotc", "oriented",
         "directed", "multi", "#", "0", "1+", "0-", "x", "1.5", "+", "-",
         "٣", "00", "-0"]

small_int = st.integers(-3, 12).map(str)
arc_end = st.builds(lambda a, s: f"{a}{s}", st.integers(-2, 12),
                    st.sampled_from("+-"))
token = st.one_of(small_int, arc_end, st.sampled_from(WORDS),
                  st.text(max_size=3))


@st.composite
def edited(draw, seeds):
    """A seed file with one to four edits: a token replaced, dropped,
    added or swapped with another of its line, or a line deleted,
    duplicated or swapped with another."""
    lines = [ln.split() for ln in draw(st.sampled_from(seeds)).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            lines.append([draw(token)])
            continue
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(
            ["replace", "drop", "add", "turn", "delete", "duplicate",
             "swap"]))
        toks = lines[i]
        if kind in ("replace", "drop", "turn") and toks:
            j = draw(st.integers(0, len(toks) - 1))
            if kind == "replace":
                toks[j] = draw(token)
            elif kind == "drop":
                del toks[j]
            else:
                h = draw(st.integers(0, len(toks) - 1))
                toks[j], toks[h] = toks[h], toks[j]
        elif kind == "add":
            toks.insert(draw(st.integers(0, len(toks))), draw(token))
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, list(toks))
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


pog_text = st.one_of(edited(POG_SEEDS), st.text(max_size=80))
dimacs_text = st.one_of(edited(DIMACS_SEEDS), st.text(max_size=80))

json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-2, 12)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["arcs", "face", "tail", "head", "position",
                         "vertex"]) | st.text(max_size=3),
        inner, max_size=4),
    max_leaves=12,
)
end = st.fixed_dictionaries({}, optional={
    "position": st.integers(-2, 12) | json_value,
    "vertex": st.integers(-2, 12)})
witness_arc = st.fixed_dictionaries({}, optional={
    "face": st.integers(-2, 12) | json_value, "tail": end | json_value,
    "head": end | json_value})
witness_text = st.one_of(
    st.builds(lambda arcs: json.dumps({"arcs": arcs}),
              st.lists(witness_arc, max_size=4)),
    json_value.map(json.dumps),
    st.text(max_size=40),
)


def parses_or_typed_error(parse, text):
    try:
        parse(text)
    except OrientAugmentError:
        pass


@FUZZ
@given(pog_text)
def test_parse_pog_fuzz(text):
    parses_or_typed_error(pog_io.parse_pog, text)


@FUZZ
@given(dimacs_text)
def test_parse_dimacs_fuzz(text):
    parses_or_typed_error(hg.parse_dimacs, text)


WITNESS_HOST = pog_io.parse_pog(POG_SEEDS[2])
WITNESS_SEED = pog_io.completion_to_json(
    sv.solve_directed(WITNESS_HOST, 6).witness)


@FUZZ
@given(st.one_of(witness_text, edited([WITNESS_SEED])))
def test_completion_from_json_fuzz(text):
    parses_or_typed_error(
        lambda t: pog_io.completion_from_json(WITNESS_HOST, t), text)


def run_cli(args: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    assert code in (0, 1, 2), (args, code)
    if code == 2:
        assert err.getvalue().startswith("error:") or "usage:" in err.getvalue()
    return code


@FUZZ_CLI
@given(pog_text, st.one_of(witness_text, st.just(WITNESS_SEED)),
       st.sampled_from(["solve", "solve-directed", "verify"]))
def test_cli_on_fuzzed_files(graph, witness, command):
    with tempfile.TemporaryDirectory() as tmp:
        g = os.path.join(tmp, "g.pog")
        w = os.path.join(tmp, "w.json")
        with open(g, "w") as fh:
            fh.write(graph)
        with open(w, "w") as fh:
            fh.write(witness)
        args = [command, g] + ([w] if command == "verify" else ["-k", "2"])
        run_cli(args)


@FUZZ_CLI
@given(dimacs_text)
def test_cli_gen_hard_on_fuzzed_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "f.cnf")
        with open(f, "w") as fh:
            fh.write(text)
        run_cli(["gen-hard", f, "-o", os.path.join(tmp, "h.pog")])
