"""Command-line interface: check, transform, parity, generate.

Exit codes are uniform across subcommands: 0 when the requested property
holds (or the output was produced), 1 when the property fails or a domain
violation prevents the operation (a certificate or location is reported),
2 when an input cannot be parsed or fails validation.

check --local-arbitrage-free | --local-zero-neutral | --find-arbitrage
    classifies every node and reports certified verdicts; --find-arbitrage
    exits 1 exactly when an arbitrage portfolio exists and prints it.
transform --transform T [--output F] [--verify]
    applies a fractional transform to every price; --verify re-classifies
    every node before and after and requires verdict preservation.
parity (SPEC | --demo)
    builds the call/put/underlying/bond market from a spec, checks the
    boundary condition, per-node 0-neutrality and the exact parity
    identity, then runs the call-put swap symmetry end to end.
generate --depth D --branching B --dim N --seed S [--regime R] ...
    emits a deterministic market document and re-classifies it to confirm
    the regime's verdict before writing; more than 65536 (B**D)
    trajectories are refused as bad input before anything is built.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager

from . import io_json
from .generators import (
    ARBITRAGE_FREE_REGIME,
    REGIMES,
    GeneratorParams,
    expected_status,
    generate_market,
)
from .io_json import DocumentError
from .market import (
    MarketError,
    classify_market,
    find_arbitrage,
    perspective,
    require_valid,
)
from .parity import (
    ParityError,
    boundary_shape_violations,
    build_parity_market,
    demo_spec,
    parity_swap_nas,
    perturb_root,
    pi_functional,
    transformed_parity_factor,
    verify_parity,
)
from .rational import DigitLimitError, format_rational, parse_rational
from .symmetry import (
    SymmetryError,
    apply_transform,
    image_rank,
    induce_map,
    verify_symmetry_on_market,
)

OK, FAIL, BAD_INPUT = 0, 1, 2


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}")


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@contextmanager
def _writing(document: str):
    # a rational past Python's int/str digit limit makes a document
    # unwritable: bad input, reported with the document's name
    try:
        yield
    except DigitLimitError as e:
        raise DocumentError(f"cannot write {document}: {e}") from None


def _write_market(ts, path, out):
    with _writing(f"the market document {path}" if path else "the market document"):
        text = io_json.serialize_market(ts)
    if path:
        _write(path, text)
    else:
        out.write(text)


def _load_market(path: str):
    ts = io_json.parse_market(_read(path))
    require_valid(ts)
    return ts


def _emit_report(doc: dict, args, out):
    doc["elapsed_seconds"] = round(time.perf_counter() - doc.pop("_t0"), 6)
    out.write(io_json.report_to_text(doc))
    if getattr(args, "report", None):
        _write(args.report, io_json.serialize_document(doc))


def cmd_check(args, out) -> int:
    ts = _load_market(args.market)
    doc = {"schema_version": io_json.SCHEMA_VERSION, "command": "check",
           "_t0": time.perf_counter()}
    cls = classify_market(ts)
    doc["market"] = io_json.classification_report(ts, cls)
    if args.find_arbitrage:
        doc["property"] = "find-arbitrage"
        found = find_arbitrage(ts)
        if found is None:
            doc["arbitrage"] = None
            doc["holds"] = True  # no arbitrage exists
            _emit_report(doc, args, out)
            return OK
        _, proof = found
        doc["arbitrage"] = io_json.arbitrage_report(proof)
        doc["holds"] = False
        _emit_report(doc, args, out)
        return FAIL
    if args.local_zero_neutral:
        doc["property"] = "local-zero-neutral"
        holds = cls.locally_zero_neutral
    else:
        doc["property"] = "local-arbitrage-free"
        holds = cls.locally_arbitrage_free
    doc["holds"] = holds
    _emit_report(doc, args, out)
    return OK if holds else FAIL


def cmd_transform(args, out) -> int:
    ts = _load_market(args.market)
    t = io_json.parse_transform(_read(args.transform))
    doc = {"schema_version": io_json.SCHEMA_VERSION, "command": "transform",
           "_t0": time.perf_counter()}
    rank = image_rank(t)
    doc["image_rank"] = rank
    doc["rank_warning"] = rank < t.src_width
    try:
        if args.verify:
            report = verify_symmetry_on_market(t, ts)
            image = report.transformed
        else:
            image = apply_transform(t, ts)
    except SymmetryError as e:
        out.write(f"transform failed: {e}\n")
        return FAIL
    if args.output:
        _write_market(image, args.output, out)
    if args.verify:
        doc["verified"] = report.ok
        doc["symmetry"] = io_json.symmetry_report_json(report)
        _emit_report(doc, args, out)
        return OK if report.ok else FAIL
    doc["verified"] = None
    _emit_report(doc, args, out)
    return OK


def cmd_parity(args, out) -> int:
    if args.demo:
        spec, perturb = demo_spec(), None
    else:
        spec, perturb = io_json.parse_parity_spec(_read(args.spec))
    ts = build_parity_market(spec)
    if perturb is not None:
        try:
            ts = perturb_root(ts, *perturb)
        except ParityError as e:
            raise DocumentError(str(e))
        require_valid(ts)

    doc = {"schema_version": io_json.SCHEMA_VERSION, "command": "parity",
           "_t0": time.perf_counter()}
    report = verify_parity(ts)
    doc["parity"] = io_json.parity_report_json(report)
    doc["market_document"] = io_json.market_to_document(ts)

    swap = parity_swap_nas()
    sym = verify_symmetry_on_market(swap, ts)
    doc["symmetry"] = io_json.symmetry_report_json(sym)
    image = sym.transformed
    boundary_ok = not boundary_shape_violations(image)
    pi_image_ok = all(
        pi_functional(perspective(p, image.numeraire)).value == 0
        for t in image.trajectories for p in t.prices) if report.ok else True
    factor = transformed_parity_factor(induce_map(swap),
                                       ts if report.ok else None)
    doc["parity_factor"] = format_rational(factor)
    doc["transformed_root"] = [format_rational(c) for c in image.s0]
    doc["transformed_boundary_ok"] = boundary_ok
    doc["holds"] = (report.ok and sym.ok and boundary_ok and pi_image_ok
                    and factor == -1)
    _emit_report(doc, args, out)
    return OK if doc["holds"] else FAIL


def cmd_generate(args, out) -> int:
    try:
        params = GeneratorParams(args.depth, args.branching, args.dim,
                                 args.seed, args.regime, args.plant_count,
                                 parse_rational(args.low),
                                 parse_rational(args.high))
    except (MarketError, ValueError) as e:
        raise DocumentError(str(e))
    ts = generate_market(params)
    require_valid(ts)
    got = classify_market(ts).status
    want = expected_status(params)
    if got != want:
        out.write(f"generation failed its own verdict check: expected {want}, "
                  f"classifier says {got}\n")
        return FAIL
    _write_market(ts, args.output, out)
    return OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="noarb",
        description="Exact no-arbitrage verification for trajectory markets")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="classify a market document")
    c.add_argument("market", help="market JSON path")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--local-arbitrage-free", action="store_true")
    g.add_argument("--local-zero-neutral", action="store_true")
    g.add_argument("--find-arbitrage", action="store_true")
    c.add_argument("--report", help="write the JSON report here")

    t = sub.add_parser("transform", help="apply a fractional transform")
    t.add_argument("market", help="market JSON path")
    t.add_argument("--transform", required=True, help="transform JSON path")
    t.add_argument("--output", help="write the transformed market here")
    t.add_argument("--verify", action="store_true",
                   help="check per-node verdict preservation")
    t.add_argument("--report", help="write the JSON report here")

    y = sub.add_parser("parity", help="verify call-put parity end to end")
    y.add_argument("spec", nargs="?", help="parity spec JSON path")
    y.add_argument("--demo", action="store_true",
                   help="run the built-in strike-1 example")
    y.add_argument("--report", help="write the JSON report here")

    n = sub.add_parser("generate", help="emit a deterministic market")
    n.add_argument("--depth", type=int, required=True)
    n.add_argument("--branching", type=int, required=True)
    n.add_argument("--dim", type=int, required=True)
    n.add_argument("--seed", type=int, required=True)
    n.add_argument("--regime", choices=REGIMES, default=ARBITRAGE_FREE_REGIME)
    n.add_argument("--plant-count", type=int, default=1)
    n.add_argument("--low", default="1")
    n.add_argument("--high", default="8")
    n.add_argument("--output", help="write the market document here")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    report = getattr(args, "report", None)
    try:
        # every rational written outside _write_market goes into the report
        with _writing(f"the report {report}" if report else "the report"):
            if args.command == "check":
                return cmd_check(args, out)
            if args.command == "transform":
                return cmd_transform(args, out)
            if args.command == "parity":
                if not args.demo and not args.spec:
                    raise DocumentError("parity needs a spec path or --demo")
                return cmd_parity(args, out)
            return cmd_generate(args, out)
    except (DocumentError, MarketError, ParityError) as e:
        sys.stderr.write(f"error: {e}\n")
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
