#!/usr/bin/env python3
"""Benchmark of solve_oriented and solve_directed at k = 3.

    python3 perfbench/run.py --workload corpus6 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process solves one instance at a time in a closed loop: for
each instance it parses the ``.pog`` text and runs ``solve_oriented``, then
parses it again and runs ``solve_directed``, so the per-graph memo never
answers from an earlier solve.  Passes over the whole workload repeat while
another one fits in ``--seconds``.  Every answer is checked against the
brute-force oracle where it runs and against the checks of ``checker.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` one untraced pass
is followed by one traced pass, and the metrics are the per-layer ones.
Details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("corpus6", "random78", "planted")
SETUP_REPEATS = (3, 7)      # at least 3, more while they take under 3 s
SETUP_BUDGET_S = 3.0
REF_EVERY_S = 0.25
# The reference loop's usual time on the 2-CPU machine the bounds were set
# on; gated times are scaled to it (see README, "Raw or scaled").
REF_NOMINAL_MS = 7.0
REF_NEAREST = 8             # reference samples that scale one solve
clock = time.perf_counter


def ref_loop_ms() -> float:
    """A fixed pure-Python integer loop; its time follows the machine's
    speed without touching the caches the solvers use."""
    t0 = clock()
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + i) & 0xFFFFF
    return (clock() - t0) * 1e3


def tail(values: list[float]) -> float:
    """The highest of p99, p90 and p75 with at least ten samples beyond it,
    else the median."""
    for pct in (99, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            return statistics.quantiles(values, n=100)[pct - 1]
    return statistics.median(values)


class Bench:
    def __init__(self, workload: str, seed: int):
        from orient_augment import pog_io
        from orient_augment import solvers as sv
        import checker
        import workloads

        self.pog_io, self.sv, self.checker = pog_io, sv, checker
        self.seed = seed
        self.make = workloads.WORKLOADS[workload]
        self.with_oracle = workload in workloads.ORACLE_WORKLOADS
        self.k = workloads.K
        self.problems: list[str] = []
        self.ref_ms: list[float] = []
        self.ref_at: list[float] = []   # when each reference sample started

    def setup(self, repeats: tuple[int, int]) -> float:
        """Make the workload's inputs, repeatedly; the median time."""
        times: list[float] = []
        while len(times) < repeats[1] and (
            len(times) < repeats[0] or sum(times) < SETUP_BUDGET_S
        ):
            self.instances = None
            gc.collect()
            t0 = clock()
            self.instances = self.make(self.seed)
            times.append(clock() - t0)
        gc.collect()
        return statistics.median(times)

    def prepare(self) -> None:
        """Per instance: the Eswaran-Tarjan bound and, where the oracle
        runs, its (verdict, optimum) in both modes."""
        parse, sv = self.pog_io.parse_pog, self.sv
        self.expect = []
        self.oracle_s = {"oriented": 0.0, "directed": 0.0}
        for inst in self.instances:
            D = parse(inst.text)
            et = self.checker.eswaran_tarjan_bound(D.n, D.arcs)
            oracle = None
            if self.with_oracle:
                oracle = {}
                for mode in ("oriented", "directed"):
                    t0 = clock()
                    r = sv.brute_solve(parse(inst.text), self.k, mode=mode)
                    self.oracle_s[mode] += clock() - t0
                    oracle[mode] = (r.verdict, r.optimum)
            self.expect.append((et, oracle))

    def run_pass(self) -> dict:
        parse, sv, k = self.pog_io.parse_pog, self.sv, self.k
        times = {"oriented": [], "directed": []}
        starts = {"oriented": [], "directed": []}
        failed = branches = 0
        last_ref = -REF_EVERY_S
        t_pass = clock()
        for inst, expect in zip(self.instances, self.expect):
            if clock() - last_ref >= REF_EVERY_S:
                self.ref_at.append(clock())
                self.ref_ms.append(ref_loop_ms())
                last_ref = clock()
            answers = {}
            for mode, solve in (("oriented", sv.solve_oriented),
                                ("directed", sv.solve_directed)):
                t0 = clock()
                try:
                    D = parse(inst.text)
                    report = solve(D, k)
                except Exception as exc:  # counted, reported, run goes on
                    failed += 1
                    self.problems.append(f"{inst.name} {mode}: {type(exc).__name__}: {exc}")
                    continue
                times[mode].append(clock() - t0)
                starts[mode].append(t0)
                branches += report.stats.branches
                answers[mode] = (D, report)
            self.check(inst, expect, answers)
        return {"times": times, "starts": starts, "failed": failed, "branches": branches,
                "attempted": 2 * len(self.instances),
                "seconds": clock() - t_pass}

    def scaled(self, times: list[float], starts: list[float]) -> list[float]:
        """Each time × REF_NOMINAL_MS ÷ the mean of the REF_NEAREST
        reference samples taken closest to it: the machine's speed changes
        within seconds, so each solve is scaled by the speed around it."""
        out = []
        for t, at in zip(times, starts):
            i = bisect.bisect(self.ref_at, at)
            lo = max(0, min(i - REF_NEAREST // 2, len(self.ref_at) - REF_NEAREST))
            near = self.ref_ms[lo:lo + REF_NEAREST]
            out.append(t * REF_NOMINAL_MS / statistics.fmean(near))
        return out

    def check(self, inst, expect, answers) -> None:
        et, oracle = expect
        for mode, (D, r) in answers.items():
            where = f"{inst.name} {mode}"
            if r.verdict:
                if r.witness is None or len(r.witness.arcs) != r.optimum:
                    self.problems.append(f"{where}: witness size differs from optimum")
                    continue
                why = self.checker.check_witness(
                    D, self.checker.witness_triples(r.witness),
                    oriented=(mode == "oriented"),
                )
                if why:
                    self.problems.append(f"{where}: witness rejected: {why}")
                if not et <= r.optimum <= self.k:
                    self.problems.append(f"{where}: optimum {r.optimum} outside [{et}, {self.k}]")
            elif r.optimum is not None or r.witness is not None:
                self.problems.append(f"{where}: a no-answer with an optimum or witness")
            if oracle is not None:
                got = (r.verdict, r.optimum if r.verdict else None)
                if got != oracle[mode]:
                    self.problems.append(f"{where}: {got} but the oracle says {oracle[mode]}")
            if inst.removed is not None and not (r.verdict and r.optimum <= inst.removed):
                self.problems.append(f"{where}: planted solution of {inst.removed} arcs missed")
        if len(answers) == 2:
            ro, rd = answers["oriented"][1], answers["directed"][1]
            if ro.verdict and not (rd.verdict and rd.optimum <= ro.optimum):
                self.problems.append(f"{inst.name}: directed optimum above oriented optimum")


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[dict]]:
    setup_s = bench.setup(SETUP_REPEATS)
    bench.prepare()
    passes = []
    t_start = clock()
    while True:
        gc.collect()
        passes.append(bench.run_pass())
        elapsed = clock() - t_start
        if elapsed + statistics.median(p["seconds"] for p in passes) > seconds:
            break
    metrics = {"setup_s": (setup_s, "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    for mode in ("oriented", "directed"):
        scaled = [bench.scaled(p["times"][mode], p["starts"][mode]) for p in passes]
        metrics[f"{mode}.wall_s"] = (statistics.median(sum(s) for s in scaled), "s")
        metrics[f"{mode}.p50_ms"] = (statistics.median(t for s in scaled for t in s) * 1e3, "ms")
    return metrics, passes


def per_layer(bench: Bench) -> tuple[dict, list[dict], dict]:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        bench.setup((1, 1))
        setup_table, _ = tracer.take()
        bench.prepare()
        oracle_table, _ = tracer.take()
    finally:
        tracer.uninstall()
    gc.collect()
    plain = bench.run_pass()
    gc.collect()
    tracer.install()
    try:
        traced = bench.run_pass()
        table, yielded_to = tracer.take()
    finally:
        tracer.uninstall()

    def get(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    ce, sc, pg = "completion_enum", "strongconn", "plane_graph"
    m: dict[str, tuple[float, str]] = {}
    for name, fields in (
        (f"{ce}.supported_completions", ("yielded", "s")),
        ("supports.is_supported_on_interval", ("calls", "s")),
        (f"{pg}.completion_from_darts", ("calls", "s")),
        (f"{ce}.simple_face_candidates", ("s",)),
        (f"{ce}.alternating_branches", ("yielded", "s")),
        (f"{sc}.scc_of_arcs", ("calls", "s")),
        (f"{ce}.directed_supported_completions", ("s",)),
        (f"{ce}.directed_joint_branches", ("yielded",)),
        (f"{sc}.condense", ("s",)),
        (f"{sc}.split_loops", ("s",)),
        (f"{pg}.build", ("calls", "s")),
        (f"{pg}.insert_arcs", ("calls", "s")),
        ("face_analysis.decompose_face", ("calls", "s")),
        ("dijoin.solve_auxiliary", ("calls", "s")),
        ("dijoin.build_auxiliary_with_extra", ("s",)),
        ("solvers.verify_solution", ("calls", "s")),
        ("pog_io.parse_pog", ("s",)),
    ):
        for field in fields:
            m[f"{name}.{field}"] = (get(name, field), "s" if field == "s" else "count")
    enumerated = yielded_to.get((f"{ce}.supported_completions", f"{ce}.simple_face_candidates"), 0)
    m[f"{ce}.simple_face_candidates.kept_ratio"] = (
        ratio(get(f"{ce}.simple_face_candidates", "returned"), enumerated), "ratio")
    m["dijoin.solve_auxiliary.hit_ratio"] = (
        ratio(get("dijoin.solve_auxiliary", "truthy"), get("dijoin.solve_auxiliary", "calls")), "ratio")
    m["solvers.branches"] = (traced["branches"], "count")
    m["solvers.branch_use_ratio"] = (ratio(
        traced["branches"],
        get(f"{ce}.alternating_branches", "yielded") + get(f"{ce}.directed_joint_branches", "yielded"),
    ), "ratio")
    for engine in ("solve_oriented", "solve_directed"):
        m[f"solvers.{engine}.self_s"] = (get(f"solvers.{engine}", "self_s"), "s")
    m["solvers.brute_solve.s"] = (oracle_table.get("solvers.brute_solve", {}).get("s", 0), "s")
    m["enumerate_plane.oriented_corpus.s"] = (
        setup_table.get("enumerate_plane.oriented_corpus", {}).get("s", 0), "s")
    for mode in ("oriented", "directed"):
        m[f"{mode}.tail_ms"] = (tail(plain["times"][mode]) * 1e3, "ms")
    m["bench.ref_loop_ms"] = (statistics.fmean(bench.ref_ms), "ms")
    wall = lambda p: sum(p["times"]["oriented"]) + sum(p["times"]["directed"])
    m["bench.trace_overhead"] = (ratio(wall(traced), wall(plain)), "ratio")
    return m, [plain, traced], {"setup": setup_table, "oracle": oracle_table,
                                "pass": table}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orient_augment", "__init__.py")):
        print(f"run.py: no orient_augment package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    bench = Bench(args.workload, args.seed)
    if args.trace:
        metrics, passes, layers = per_layer(bench)
    else:
        metrics, passes = end_to_end(bench, args.seconds)
        layers = None
    result = {
        "correct": not bench.problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, problems=bench.problems[:100],
                  instances=[inst.name for inst in bench.instances],
                  pass_times=[p["times"] for p in passes],
                  pass_starts=[p["starts"] for p in passes],
                  ref_loop_ms=bench.ref_ms, ref_at=bench.ref_at,
                  oracle_s=bench.oracle_s,
                  layers=layers)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh)
    for text in bench.problems[:20]:
        print(f"problem: {text}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
