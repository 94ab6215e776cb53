"""The three workloads: inputs built in set-up, timed operations, checks.

A workload is a list of operations run in whole rounds. `build(seed, r,
workdir)` makes round r's inputs (market objects, portfolio families,
document files) and returns its operations; each operation is run once
inside the timed phase, and its output is checked afterwards against
`checks`, which never calls noarb. The shapes and regimes of a round are
fixed; the seed only draws the numbers, so every round of every run does
the same kind and amount of work.

Why these workloads:

  classify-mix  24 small and mid-sized markets per round, one per
                (depth, branching, dim) in {2,3,4}^2 x {1,2,3} with at most
                81 trajectories (depth 4 with branching 4 is left to
                large-audit: with it, quadratic `validate` took 23% of
                this workload). The shape fixes the
                regime, 8 markets each. LP count and kernel speed decide it.
  large-audit   six 256-trajectory markets (two per regime) and one
                1024-trajectory arbitrage-free market per round, each
                classified and audited over 10 portfolios. Quadratic
                `validate`, node construction and per-trajectory
                self-financing walks decide it; LPs are a minority.
  cli-docs      24 CLI commands per round over documents written in
                set-up: parsing, report assembly, serialization and
                repeated validation decide it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import checks
from checks import Market, Traj

from noarb import classify_market, find_arbitrage, io_json
from noarb import constant_portfolio, epsilon_witness, portfolio_audit, restricted_portfolio
from noarb.cli import main as cli_main
from noarb.generators import REGIMES, GeneratorParams, generate_market
from noarb.market import Node


@dataclass
class Op:
    """One timed operation: run() is timed, check(output) is not.

    check returns (problems, delivered node verdicts).
    """

    label: str
    run: object
    check: object


def plain(ts) -> Market:
    """The market's input data, read without touching noarb's caches."""
    return Market(ts.dim, ts.numeraire, tuple(
        Traj(t.id, t.prices, t.tags, t.horizon) for t in ts.trajectories))


def verdict_tuples(cls) -> list:
    out = []
    for node, v in zip(cls.nodes, cls.verdicts):
        mem = v.membership
        sep = v.separation
        out.append((node.trajectory_id, node.stage, v.status,
                    None if mem is None else (mem.indices, mem.weights),
                    None if sep is None else (sep.kind, sep.h)))
    return out


def _rng(seed: int, r: int, name: str) -> random.Random:
    return random.Random(f"{name}/{seed}/{r}")


# ----------------------------------------------------------- classify-mix

CLASSIFY_SHAPES = tuple((d, b, n) for d in (2, 3, 4) for b in (2, 3, 4) for n in (1, 2, 3)
                        if b ** d <= 81)


def build_classify_mix(seed: int, r: int, workdir: str) -> list:
    rng = _rng(seed, r, "classify-mix")
    ops = []
    for depth, branching, dim in CLASSIFY_SHAPES:
        regime = REGIMES[(depth + branching + dim) % 3]
        ts = generate_market(GeneratorParams(depth, branching, dim,
                                             rng.randrange(2 ** 31), regime))
        ops.append(Op(f"classify {regime} {depth}x{branching}x{dim}",
                      _classify_run(ts), _classify_check(plain(ts), regime)))
    return ops


def _classify_run(ts):
    return lambda: (classify_market(ts), find_arbitrage(ts))


def _classify_check(m: Market, regime: str):
    def check(out):
        cls, found = out
        nodes = checks.market_nodes(m)
        verdicts = verdict_tuples(cls)
        problems = checks.classification_problems(nodes, regime, cls.status, verdicts)
        witness = None
        if found is not None:
            _, proof = found
            witness = (proof.node.trajectory_id, proof.node.stage, proof.witness.kind,
                       proof.witness.h, proof.terminal_gains, proof.strict_trajectory)
        problems += checks.witness_problems(m, nodes, verdicts, witness)
        return problems, len(cls.nodes)
    return check


# ------------------------------------------------------------ large-audit

# depth with branching 4: 256 and 1024 trajectories
AUDIT_MARKETS = ((4, "arbitrage-free"), (4, "zero-neutral-only"), (4, "plant-arbitrage")) * 2 + (
    (5, "arbitrage-free"),)
AUDIT_CONSTANT, AUDIT_RESTRICTED = 6, 4
EPSILON = Fraction(1, 1000)


def _small(rng) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def build_large_audit(seed: int, r: int, workdir: str) -> list:
    rng = _rng(seed, r, "large-audit")
    ops = []
    for depth, regime in AUDIT_MARKETS:
        ts = generate_market(GeneratorParams(depth, 4, 2, rng.randrange(2 ** 31), regime,
                                             plant_count=3 if regime == "plant-arbitrage" else 1))
        m = plain(ts)
        hs = [(_small(rng), _small(rng)) for _ in range(AUDIT_CONSTANT)]
        family = [constant_portfolio(ts, h) for h in hs]
        spots = []
        for _ in range(AUDIT_RESTRICTED):
            t = m.trajectories[rng.randrange(len(m.trajectories))]
            spots.append((t.id, rng.randrange(t.horizon), (_small(rng), _small(rng))))
        family += [restricted_portfolio(ts, Node(tid, k), xi) for tid, k, xi in spots]
        ops.append(Op(f"audit {regime} {len(m.trajectories)}",
                      _audit_run(ts, family, regime),
                      _audit_check(m, regime, hs, spots)))
    return ops


def _audit_run(ts, family, regime):
    def run():
        cls = classify_market(ts)
        audit = portfolio_audit(ts, family)
        eps = None
        if regime == "zero-neutral-only":
            eps = [epsilon_witness(ts, family[0], EPSILON)]
        return cls, audit, eps
    return run


def _audit_check(m: Market, regime: str, hs, spots):
    def check(out):
        cls, audit, eps = out
        nodes = checks.market_nodes(m)
        problems = checks.classification_problems(nodes, regime, cls.status,
                                                  verdict_tuples(cls))
        gains = [checks.constant_gains(m, h) for h in hs]
        gains += [checks.restricted_gains(m, tid, k, xi) for tid, k, xi in spots]
        entries = [(e.label, e.min_gain, e.max_gain, e.argmin_trajectory, e.is_arbitrage)
                   for e in audit.entries]
        problems += checks.audit_problems(regime, gains, entries, audit.sup_inf)
        if (eps is None) != (regime != "zero-neutral-only"):
            problems.append(("epsilon", "epsilon witness run on the wrong market"))
        for tid, g in zip(eps or (), gains):
            if not g[tid] < EPSILON:
                problems.append(("epsilon", f"witness {tid} gains {g[tid]} >= {EPSILON}"))
        return problems, len(cls.nodes)
    return check


# --------------------------------------------------------------- cli-docs

CHECK_PROPS = ("--local-arbitrage-free", "--local-zero-neutral", "--find-arbitrage")
CLI_SHAPE = (4, 3)  # depth, branching: 81 trajectories, 40 nodes


def run_cli(argv) -> tuple:
    """noarb's main in-process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _write_json(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def full_rank_transform(rng, width: int, nonneg: bool = False) -> tuple:
    """(L, nu'): random entries, the nu' row (or every row) nonnegative, rank full."""
    nu = rng.randrange(width)
    while True:
        L = tuple(tuple(Fraction(rng.randint(0 if nonneg or i == nu else -6, 6),
                                 rng.randint(1, 3))
                        for _ in range(width)) for i in range(width))
        if any(L[nu]) and checks.rank(L) == width:
            return L, nu


def swap_transform(width: int, j: int) -> tuple:
    """Coordinates 0 and j exchanged: the change of numeraire from 0 to j."""
    perm = list(range(width))
    perm[0], perm[j] = perm[j], perm[0]
    return tuple(tuple(Fraction(int(perm[r] == c)) for c in range(width))
                 for r in range(width)), 0


def parity_spec_doc(rng, n: int, m: int) -> dict:
    """Strike, n terminal values, m steps and positive weights at every interior node."""
    strike = Fraction(rng.randint(2, 9), rng.randint(1, 3))
    values = set()
    while len(values) < n:
        values.add(Fraction(rng.randint(1, 30), rng.randint(1, 5)))
    weights = {}
    paths = [()]
    for _ in range(m):
        for p in paths:
            raw = [rng.randint(1, 6) for _ in range(n)]
            weights["-".join(map(str, p))] = [checks.fmt(Fraction(w, sum(raw))) for w in raw]
        paths = [p + (j,) for p in paths for j in range(n)]
    return {"schema_version": "1", "strike": checks.fmt(strike),
            "terminal_values": [checks.fmt(v) for v in sorted(values)],
            "times": [checks.fmt(Fraction(i, 2)) for i in range(m + 1)],
            "weights": weights}


def build_cli_docs(seed: int, r: int, workdir: str) -> list:
    rng = _rng(seed, r, "cli-docs")
    fixed = random.Random("cli-docs/fixed")
    os.makedirs(workdir, exist_ok=True)
    path = lambda name: os.path.join(workdir, name)
    depth, branching = CLI_SHAPE
    ops = []

    for i, regime in enumerate(REGIMES):
        out = path(f"gen-{i}.json")
        argv = ["generate", "--depth", str(depth), "--branching", str(branching),
                "--dim", "2", "--seed", str(rng.randrange(2 ** 31)),
                "--regime", regime, "--output", out]
        ops.append(Op(f"generate {regime}", _cli(argv),
                      _generate_check(out, depth, branching, regime)))

    for i, regime in enumerate(REGIMES):
        ts = generate_market(GeneratorParams(depth, branching, 2, rng.randrange(2 ** 31), regime))
        doc = path(f"market-{i}.json")
        with open(doc, "w", encoding="utf-8") as fh:
            fh.write(io_json.serialize_market(ts))
        m = plain(ts)
        for j, prop in enumerate(CHECK_PROPS):
            report = path(f"check-{i}-{j}.json")
            ops.append(Op(f"check {regime} {prop}",
                          _cli(["check", doc, prop, "--report", report]),
                          _check_check(m, regime, prop, report)))

    # the dim-1 inputs do not depend on the seed: their known fault fails every time
    for dim in (1, 2, 3):
        src = fixed if dim == 1 else rng
        regime = REGIMES[dim - 1]
        ts = generate_market(GeneratorParams(depth, branching, dim, src.randrange(2 ** 31), regime))
        doc = path(f"source-{dim}.json")
        with open(doc, "w", encoding="utf-8") as fh:
            fh.write(io_json.serialize_market(ts))
        m = plain(ts)
        transforms = [("full-rank", full_rank_transform(src, dim + 1)),
                      ("swap", swap_transform(dim + 1, src.randint(1, dim)))]
        if dim > 1:
            transforms.append(("nonnegative", full_rank_transform(src, dim + 1, nonneg=True)))
        for kind, (L, nu) in transforms:
            tdoc = path(f"transform-{dim}-{kind}.json")
            _write_json(tdoc, {"schema_version": "1", "L": [[checks.fmt(c) for c in row] for row in L],
                               "src_numeraire": 0, "dst_numeraire": nu,
                               "multiplier": "numeraire"})
            image, report = path(f"image-{dim}-{kind}.json"), path(f"tr-{dim}-{kind}.json")
            argv = ["transform", doc, "--transform", tdoc, "--verify",
                    "--output", image, "--report", report]
            ops.append(Op(f"transform dim {dim} {kind}", _cli(argv),
                          _transform_check(m, L, nu, kind == "swap", report, image)))

    specs = [(parity_spec_doc(rng, 3, 3), True), (parity_spec_doc(rng, 2, 4), True)]
    bad = dict(specs[0][0], perturb_root={"asset": 0, "amount": "1/7"})
    specs.append((bad, False))
    report = path("parity-demo.json")
    ops.append(Op("parity --demo", _cli(["parity", "--demo", "--report", report]),
                  _parity_check(report, True)))
    for i, (spec, valid) in enumerate(specs):
        doc, report = path(f"spec-{i}.json"), path(f"parity-{i}.json")
        _write_json(doc, spec)
        ops.append(Op(f"parity spec {i}", _cli(["parity", doc, "--report", report]),
                      _parity_check(report, valid)))
    return ops


def _cli(argv):
    return lambda: run_cli(argv)


def _generate_check(out_path, depth, branching, regime):
    def check(out):
        rc = out[0]
        doc = checks.read_json(out_path) if rc == 0 else None
        problems = checks.generated_problems(rc, doc, depth, branching, regime)
        nodes = len(checks.market_nodes(checks.market_from_doc(doc))) if doc else 0
        return problems, nodes
    return check


def _check_check(m, regime, prop, report_path):
    def check(out):
        rc = out[0]
        report = checks.read_json(report_path)
        return (checks.check_report_problems(m, regime, prop, rc, report),
                len(report["market"]["nodes"]))
    return check


def _transform_check(m, L, nu, swap, report_path, image_path):
    def check(out):
        rc = out[0]
        report = checks.read_json(report_path)
        problems = checks.transform_problems(L, 0, nu, swap, rc, report, m,
                                             checks.read_json(image_path))
        return problems, 2 * len(report["symmetry"]["comparisons"])
    return check


def _parity_check(report_path, valid):
    def check(out):
        rc = out[0]
        report = checks.read_json(report_path)
        nodes = checks.market_nodes(checks.market_from_doc(report["market_document"]))
        return (checks.parity_problems(rc, report, valid),
                len(nodes) + 2 * len(report["symmetry"]["comparisons"]))
    return check


WORKLOADS = {"classify-mix": build_classify_mix,
             "large-audit": build_large_audit,
             "cli-docs": build_cli_docs}
