"""Command-line interface.

Exit codes: 0 for a yes verdict, 1 for no (or failed verification), 2 for
usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import hardness as hg
from . import plane_graph as pg
from . import pog_io
from . import solvers as sv
from . import strongconn as sc
from .errors import OrientAugmentError
from .face_analysis import classify_all


def _load(path: str) -> pg.PlaneDigraph:
    return pog_io.parse_pog(Path(path).read_text())


def _write(text: str, output: Optional[str]) -> int:
    """Write ``text`` to the file ``output``, or to stdout when None."""
    if output:
        Path(output).write_text(text)
    else:
        print(text, end="")
    return 0


def _emit_report(report: sv.SolveReport, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        if report.verdict:
            print(f"yes optimum={report.optimum}")
            for a in report.witness.arcs:
                print(
                    f"  arc face={a.face} "
                    f"{a.tail.vertex}@{a.tail.position} -> "
                    f"{a.head.vertex}@{a.head.position}"
                )
        else:
            print("no")
    return 0 if report.verdict else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orient-augment",
        description="strong-connectivity augmentation of plane graphs",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="JSON reports")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="minimum oriented augmentation",
                        parents=[common])
    ps.add_argument("input")
    ps.add_argument("-k", type=int, required=True)
    ps.add_argument("--mode", choices=["exhaustive", "montecarlo"],
                    default="exhaustive")
    ps.add_argument("--trials", type=int, default=None)
    ps.add_argument("--seed", type=int, default=0)

    pd = sub.add_parser("solve-directed", help="digons allowed in the solution", parents=[common])
    pd.add_argument("input")
    pd.add_argument("-k", type=int, required=True)

    pb = sub.add_parser("brute", help="exhaustive oracle", parents=[common])
    pb.add_argument("input")
    pb.add_argument("-k", type=int, required=True)
    pb.add_argument("--mode", choices=["oriented", "directed"],
                    default="oriented")
    pb.add_argument("--oracle-limit", type=int, nargs=2,
                    default=sv.DEFAULT_ORACLE_LIMITS,
                    metavar=("N", "K"))

    pv = sub.add_parser("verify", help="check a witness JSON against a graph")
    pv.add_argument("input")
    pv.add_argument("witness")
    pv.add_argument("--mode", choices=["oriented", "directed"],
                    default="oriented")

    pc = sub.add_parser("condense", help="contract strong components")
    pc.add_argument("input")
    pc.add_argument("-o", "--output", default=None)

    pt = sub.add_parser("stats", help="face classes and angle census")
    pt.add_argument("input")

    ph = sub.add_parser("gen-hard", help="formula to augmentability instance")
    ph.add_argument("input", help="extended DIMACS with rotv/rotc lines")
    ph.add_argument("-o", "--output", default=None)

    pr = sub.add_parser("gen-random", help="random plane instance")
    pr.add_argument("-n", type=int, required=True)
    pr.add_argument("-m", type=int, required=True)
    pr.add_argument("--mode", choices=["oriented", "directed"],
                    default="oriented")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("-o", "--output", default=None)

    pe = sub.add_parser("export-dot", help="Graphviz view of a graph")
    pe.add_argument("input")
    pe.add_argument("--witness", default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0

    try:
        return _dispatch(args)
    except (OrientAugmentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "solve":
        D = _load(args.input)
        report = sv.solve_oriented(
            D, args.k,
            method=args.mode,
            trials=args.trials,
            seed=args.seed,
        )
        return _emit_report(report, args.json)

    if args.command == "solve-directed":
        D = _load(args.input)
        return _emit_report(sv.solve_directed(D, args.k), args.json)

    if args.command == "brute":
        D = _load(args.input)
        report = sv.brute_solve(
            D, args.k, mode=args.mode, limits=tuple(args.oracle_limit)
        )
        return _emit_report(report, args.json)

    if args.command == "verify":
        D = _load(args.input)
        completion = pog_io.completion_from_json(
            D, Path(args.witness).read_text()
        )
        ok, diag = sv.verify_solution(D, completion, args.mode)
        print("valid" if ok else f"invalid: {diag}")
        return 0 if ok else 1

    if args.command == "condense":
        D = _load(args.input)
        return _write(pog_io.write_pog(sc.condense(D).condensed), args.output)

    if args.command == "stats":
        D = _load(args.input)
        _classes, report = classify_all(D)
        print(report.table())
        return 0

    if args.command == "gen-hard":
        phi = hg.parse_dimacs(Path(args.input).read_text())
        return _write(pog_io.write_pog(hg.reduce_formula(phi).graph),
                      args.output)

    if args.command == "gen-random":
        D = pog_io.gen_random(args.n, args.m, args.seed, mode=args.mode)
        return _write(pog_io.write_pog(D), args.output)

    if args.command == "export-dot":
        D = _load(args.input)
        completion = None
        if args.witness:
            completion = pog_io.completion_from_json(
                D, Path(args.witness).read_text()
            )
        print(pog_io.export_dot(D, completion), end="")
        return 0

    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
