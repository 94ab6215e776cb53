"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports noarb from its `src`
directory, single-threaded (NOARB_THREADS is removed). Set-up builds the
first round's inputs three times and reports the median with the import
time as `setup_s`. The timed phase then runs whole rounds of the
workload's operations, at least one, and starts another only while the
mean round still fits in `--seconds` of operation time; each later round's inputs are built fresh, outside the timed phase,
so no market object is reused. Every output is checked after its round,
also outside the timed phase.

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run, and the spans
are written to perfbench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3


def import_noarb() -> float:
    """Seconds to import noarb from this checkout's sources; exits if absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "noarb", "__init__.py")):
        sys.stderr.write(f"error: no noarb sources under {src}\n")
        sys.exit(2)
    os.environ.pop("NOARB_THREADS", None)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import noarb
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(noarb.__file__).startswith(src + os.sep):
        sys.stderr.write(f"error: imported noarb from {noarb.__file__}, not {src}\n")
        sys.exit(2)
    return elapsed


def per_layer(tracer, rounds: int, ops: int, nodes: int, timed_s: float) -> dict:
    """Per-layer metrics; counts and seconds are per round of the workload.

    nodes counts the node verdicts of every checked operation, failed ones
    included, so that calls per node compare like with like.
    """
    def per_round(v):
        return v / rounds

    def share(a, b):
        return a / b if b else 0.0

    validate_calls, validate_s = tracer.layer("market.validate")
    node_calls, node_s = tracer.layer("market.nodes")
    geo_calls, geo_s = tracer.layer("geometry")
    solve_calls, solve_s = tracer.layer("simplex.solve")
    cert_calls, cert_s = tracer.layer("certcheck")
    pf_calls, pf_s = tracer.layer("market.portfolio")
    apply_calls, apply_s = tracer.layer("symmetry.apply_transform")
    point_calls, _ = tracer.layer("symmetry.apply_point")
    lps = sum(tracer.lp.values())
    classified = tracer.calls["market.classify_node"]
    m = {
        "market.validate.calls_per_op": (share(validate_calls, ops), "1/op"),
        "market.validate.self_s": (per_round(validate_s), "s"),
        "market.nodes.calls": (per_round(node_calls), "count"),
        "market.nodes.self_s": (per_round(node_s), "s"),
        "market.classify_node.calls_per_node": (share(classified, nodes), "1/node"),
        "market.classify_node.self_s": (per_round(tracer.layer("market.classify_node")[1]), "s"),
        "geometry.lp.ri.calls": (per_round(tracer.lp["ri"]), "count"),
        "geometry.lp.hull.calls": (per_round(tracer.lp["hull"]), "count"),
        "geometry.lp.disperse.calls": (per_round(tracer.lp["disperse"]), "count"),
        "geometry.lp.separator.calls": (per_round(tracer.lp["separator"]), "count"),
        "geometry.lp_per_node": (share(lps, classified), "lp/node"),
        "geometry.self_s": (per_round(geo_s), "s"),
        "simplex.solve.calls": (per_round(solve_calls), "count"),
        "simplex.solve.self_s": (per_round(solve_s), "s"),
        "simplex.solve.input_cells": (per_round(tracer.cells), "count"),
        "simplex.solve.input_bits_max": (tracer.bits_max, "bits"),
        "certcheck.calls": (per_round(cert_calls), "count"),
        "certcheck.self_s": (per_round(cert_s), "s"),
        "market.portfolio.calls": (per_round(pf_calls), "count"),
        "market.portfolio.self_s": (per_round(pf_s), "s"),
        "io_json.parse.self_s": (per_round(tracer.layer("io_json.parse")[1]), "s"),
        "io_json.serialize.self_s": (per_round(tracer.layer("io_json.serialize")[1]), "s"),
        "io_json.report.self_s": (per_round(tracer.layer("io_json.report")[1]), "s"),
        "io_json.bytes_in": (per_round(tracer.bytes_in), "B"),
        "io_json.bytes_out": (per_round(tracer.bytes_out), "B"),
        "symmetry.apply_transform.calls_per_op": (share(apply_calls, ops), "1/op"),
        "symmetry.apply_transform.self_s": (per_round(apply_s), "s"),
        "symmetry.apply_point.calls_per_op": (share(point_calls, ops), "1/op"),
        "parity.verify_parity.self_s": (per_round(tracer.layer("parity.verify_parity")[1]), "s"),
        "trace.covered_share": (share(tracer.top_s, timed_s), "share"),
        "trace.round_s": (per_round(timed_s), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one noarb benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s = import_noarb()
    import checks
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}\n")
        return 2
    build = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        return measure(args, build, workdir, import_s, workloads, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, build, workdir, import_s, workloads, checks) -> int:
    builds = []

    def timed_build(r):
        shutil.rmtree(workdir, ignore_errors=True)  # no stale output can pass a check
        t0 = time.perf_counter()
        ops = build(args.seed, r, workdir)
        builds.append(time.perf_counter() - t0)
        return ops

    for _ in range(SETUP_REPEATS):
        ops = timed_build(0)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(also=[workloads])

    latencies = []
    attempted = failed = certified = verdicts = 0
    correct = True
    problems_seen = []
    timed_s = 0.0
    rounds = 0
    while True:
        if rounds:
            ops = timed_build(rounds)
        gc.collect()
        outputs = []
        round_s = 0.0
        for i, op in enumerate(ops):
            if tracer:
                tracer.op_id = attempted + i
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as e:  # an op that raises is a wrong output
                out, err = None, e
            dt = time.perf_counter() - t0
            if tracer:
                tracer.active = False
            round_s += dt
            latencies.append(dt)
            outputs.append((out, err))
        timed_s += round_s
        rounds += 1

        for op, (out, err) in zip(ops, outputs):
            attempted += 1
            if err is not None:
                problems = [("exception", f"{type(err).__name__}: {err}")]
                delivered = 0
            else:
                try:
                    problems, delivered = op.check(out)
                except Exception as e:  # unreadable output: a wrong output
                    problems, delivered = [("check", f"{type(e).__name__}: {e}")], 0
                verdicts += delivered
            if problems:
                failed += 1
                if any(code != checks.KNOWN_FAULT for code, _ in problems):
                    correct = False
                if len(problems_seen) < 20:
                    problems_seen.append(f"{op.label}: {problems}")
            else:
                certified += delivered
        del outputs, ops
        if timed_s + timed_s / rounds > args.seconds:  # the next round would overrun
            break

    if tracer:
        tracer.uninstall()
    for line in problems_seen:
        sys.stderr.write(f"problem: {line}\n")

    setup_s = import_s + statistics.median(builds)
    kernel = sys.modules["noarb.simplex"].KERNEL
    print(f"# {args.workload} seed {args.seed}, {kernel} kernel: {rounds} rounds, {attempted} ops, "
          f"{failed} failed, timed {timed_s:.3f} s, {timed_s / rounds:.3f} s/round, "
          f"import {import_s:.3f} s, builds {', '.join(f'{b:.3f}' for b in builds)} s")
    if tracer:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "rounds": rounds, "timed_s": timed_s})
        metrics = per_layer(tracer, rounds, attempted, verdicts, timed_s)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "nodes_per_s": {"value": certified / timed_s, "unit": "1/s"},
            "op_ms_p50": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
