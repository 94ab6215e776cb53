"""JSON documents for markets, transforms, parity specs, and reports.

Every rational serializes as its canonical lowest-term "p/q" string (bare
"p" for integers), so serialize/parse round-trips are bit-exact and
documents never contain floating point. All documents carry
schema_version "1" and parse strictly: unknown shapes, missing fields, or
non-canonical rationals are rejected with the offending location.

Verification reports embed, per node, the increment points in
first-occurrence order together with the membership/separation
certificates indexed against exactly that order, so a third party can
re-check every verdict with plain rational arithmetic and no LP solver.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .certcheck import check_hull_certificate, check_separation
from .geometry import HullCertificate, SeparationCertificate
from .market import (
    ARBITRAGE_FREE,
    ZERO_NEUTRAL_ONLY,
    MarketClassification,
    Node,
    Trajectory,
    TrajectorySet,
    increment_set,
)
from .parity import ParityReport, ParitySpec
from .rational import format_rational, parse_rational
from .symmetry import (
    NUMERAIRE_MULTIPLIER,
    RECIPROCAL_MULTIPLIER,
    FractionalTransform,
    SampledMultiplier,
)

SCHEMA_VERSION = "1"


class DocumentError(ValueError):
    pass


def _fail(where: str, message: str):
    raise DocumentError(f"{where}: {message}")


def _get(obj: dict, key: str, kind, where: str):
    if not isinstance(obj, dict):
        _fail(where, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        _fail(where, f"missing field {key!r}")
    v = obj[key]
    if kind is int and (isinstance(v, bool) or not isinstance(v, int)):
        _fail(where, f"field {key!r} must be an integer")
    if kind in (str, list, dict) and not isinstance(v, kind):
        _fail(where, f"field {key!r} must be a {kind.__name__}")
    return v


def _rational(raw, where: str) -> Fraction:
    if not isinstance(raw, str):
        _fail(where, f"rationals are 'p/q' strings, got {type(raw).__name__}")
    try:
        return parse_rational(raw)
    except ValueError as e:
        _fail(where, str(e))


def _rational_vector(raw, where: str) -> tuple:
    if not isinstance(raw, list):
        _fail(where, "expected a list of rational strings")
    return tuple(_rational(x, f"{where}[{i}]") for i, x in enumerate(raw))


def _check_version(doc: dict, where: str):
    if _get(doc, "schema_version", str, where) != SCHEMA_VERSION:
        _fail(where, f"unsupported schema_version {doc['schema_version']!r}")


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def serialize_document(doc: dict) -> str:
    return _dumps(doc)


def _loads(text: str, where: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        _fail(where, f"invalid JSON: {e}")
    if not isinstance(doc, dict):
        _fail(where, "top level must be an object")
    return doc


# ---------------------------------------------------------------- markets

def market_to_document(ts: TrajectorySet) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": ts.dim,
        "numeraire": ts.numeraire,
        "s0": [format_rational(c) for c in ts.s0],
        "w0": ts.w0,
        "trajectories": [
            {
                "id": t.id,
                "prices": [[format_rational(c) for c in p] for p in t.prices],
                "tags": list(t.tags),
                "horizon": t.horizon,
            }
            for t in ts.trajectories
        ],
    }


def market_from_document(doc: dict) -> TrajectorySet:
    where = "market"
    _check_version(doc, where)
    dim = _get(doc, "dim", int, where)
    numeraire = _get(doc, "numeraire", int, where)
    s0 = _rational_vector(_get(doc, "s0", list, where), f"{where}.s0")
    w0 = _get(doc, "w0", str, where)
    trajs = []
    for i, traw in enumerate(_get(doc, "trajectories", list, where)):
        twhere = f"{where}.trajectories[{i}]"
        tid = _get(traw, "id", str, twhere)
        prices = tuple(_rational_vector(p, f"{twhere}.prices[{k}]")
                       for k, p in enumerate(_get(traw, "prices", list, twhere)))
        tags = _get(traw, "tags", list, twhere)
        if not all(isinstance(w, str) for w in tags):
            _fail(twhere, "tags must be strings")
        horizon = _get(traw, "horizon", int, twhere)
        trajs.append(Trajectory(tid, prices, tuple(tags), horizon))
    if not trajs:
        _fail(where, "at least one trajectory required")
    return TrajectorySet(dim, numeraire, s0, w0, tuple(trajs))


def serialize_market(ts: TrajectorySet) -> str:
    return _dumps(market_to_document(ts))


def parse_market(text: str) -> TrajectorySet:
    return market_from_document(_loads(text, "market"))


# -------------------------------------------------------------- transforms

def transform_to_document(t: FractionalTransform) -> dict:
    if t.multiplier in (NUMERAIRE_MULTIPLIER, RECIPROCAL_MULTIPLIER):
        mult = t.multiplier
    else:
        mult = {"samples": [[[format_rational(c) for c in s], format_rational(v)]
                            for s, v in t.multiplier.samples]}
    return {
        "schema_version": SCHEMA_VERSION,
        "L": [[format_rational(c) for c in row] for row in t.L],
        "src_numeraire": t.src_numeraire,
        "dst_numeraire": t.dst_numeraire,
        "multiplier": mult,
    }


def transform_from_document(doc: dict) -> FractionalTransform:
    where = "transform"
    _check_version(doc, where)
    rows = tuple(_rational_vector(r, f"{where}.L[{i}]")
                 for i, r in enumerate(_get(doc, "L", list, where)))
    src = _get(doc, "src_numeraire", int, where)
    dst = _get(doc, "dst_numeraire", int, where)
    raw = doc.get("multiplier", NUMERAIRE_MULTIPLIER)
    if raw in (NUMERAIRE_MULTIPLIER, RECIPROCAL_MULTIPLIER):
        mult = raw
    elif isinstance(raw, dict):
        samples = []
        for i, pair in enumerate(_get(raw, "samples", list, f"{where}.multiplier")):
            pwhere = f"{where}.multiplier.samples[{i}]"
            if not (isinstance(pair, list) and len(pair) == 2):
                _fail(pwhere, "expected [point, value]")
            samples.append((_rational_vector(pair[0], pwhere),
                            _rational(pair[1], pwhere)))
        mult = SampledMultiplier(tuple(samples))
    else:
        _fail(where, f"unknown multiplier {raw!r}")
    try:
        return FractionalTransform(rows, src, dst, mult)
    except ValueError as e:
        _fail(where, str(e))


def serialize_transform(t: FractionalTransform) -> str:
    return _dumps(transform_to_document(t))


def parse_transform(text: str) -> FractionalTransform:
    return transform_from_document(_loads(text, "transform"))


# ------------------------------------------------------------ parity specs

def parity_spec_to_document(spec: ParitySpec, perturb=None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "strike": format_rational(spec.strike),
        "terminal_values": [format_rational(y) for y in spec.terminal_values],
        "times": [format_rational(t) for t in spec.times],
    }
    if spec.weights:
        doc["weights"] = {
            "-".join(str(j) for j in path): [format_rational(w) for w in ws]
            for path, ws in sorted(spec.weights.items())
        }
    if perturb is not None:
        asset, amount = perturb
        doc["perturb_root"] = {"asset": asset, "amount": format_rational(amount)}
    return doc


def parity_spec_from_document(doc: dict):
    """Returns (spec, perturb) where perturb is None or (asset, amount)."""
    where = "parity-spec"
    _check_version(doc, where)
    strike = _rational(_get(doc, "strike", str, where), f"{where}.strike")
    values = _rational_vector(_get(doc, "terminal_values", list, where),
                              f"{where}.terminal_values")
    times = _rational_vector(_get(doc, "times", list, where), f"{where}.times")
    weights = {}
    if "weights" in doc:
        for key, raw in _get(doc, "weights", dict, where).items():
            path = tuple(int(j) for j in key.split("-")) if key else ()
            weights[path] = _rational_vector(raw, f"{where}.weights[{key!r}]")
    try:
        spec = ParitySpec(strike, values, times, weights or None)
    except ValueError as e:
        _fail(where, str(e))
    perturb = None
    if "perturb_root" in doc:
        praw = doc["perturb_root"]
        asset = _get(praw, "asset", int, f"{where}.perturb_root")
        amount = _rational(_get(praw, "amount", str, f"{where}.perturb_root"),
                           f"{where}.perturb_root.amount")
        perturb = (asset, amount)
    return spec, perturb


def parse_parity_spec(text: str):
    return parity_spec_from_document(_loads(text, "parity-spec"))


# ---------------------------------------------------------------- reports

def _certificate_json(cert):
    if cert is None:
        return None
    if isinstance(cert, HullCertificate):
        return {"indices": list(cert.indices),
                "weights": [format_rational(w) for w in cert.weights]}
    if isinstance(cert, SeparationCertificate):
        return {"kind": cert.kind, "h": [format_rational(c) for c in cert.h]}
    raise DocumentError(f"unknown certificate type {type(cert).__name__}")


def node_report(ts: TrajectorySet, node: Node, verdict) -> dict:
    """One node's verdict with re-checked certificates and its increments."""
    inc = increment_set(ts, node)
    if verdict.membership is not None:
        interior = verdict.status == ARBITRAGE_FREE
        origin = tuple(Fraction(0) for _ in range(ts.dim))
        if not check_hull_certificate(inc, origin, verdict.membership,
                                      require_interior=interior):
            raise DocumentError(
                f"internal: membership certificate at ({node.trajectory_id}, "
                f"{node.stage}) does not re-validate")
    if verdict.separation is not None and not check_separation(inc, verdict.separation):
        raise DocumentError(
            f"internal: separation certificate at ({node.trajectory_id}, "
            f"{node.stage}) does not re-validate")
    return {
        "trajectory": node.trajectory_id,
        "stage": node.stage,
        "status": verdict.status,
        "increments": [[format_rational(c) for c in p] for p in inc.points],
        "membership": _certificate_json(verdict.membership),
        "separation": _certificate_json(verdict.separation),
    }


def classification_report(ts: TrajectorySet, cls: MarketClassification) -> dict:
    return {
        "status": cls.status,
        "arbitrage_nodes": [{"trajectory": n.trajectory_id, "stage": n.stage}
                            for n in cls.arbitrage_nodes],
        "nodes": [node_report(ts, n, v) for n, v in zip(cls.nodes, cls.verdicts)],
    }


def arbitrage_report(proof) -> dict:
    return {
        "node": {"trajectory": proof.node.trajectory_id, "stage": proof.node.stage},
        "holding": [format_rational(c) for c in proof.witness.h],
        "witness_kind": proof.witness.kind,
        "v0": "0",
        "terminal_gains": [[tid, format_rational(g)]
                           for tid, g in proof.terminal_gains],
        "strict_trajectory": proof.strict_trajectory,
    }


def parity_report_json(report: ParityReport) -> dict:
    return {
        "holds": report.ok,
        "strike": format_rational(report.strike),
        "boundary_violations": [[tid, msg] for tid, msg in
                                report.boundary_violations],
        "pi_violations": [
            {"trajectory": tid, "stage": stage, "value": format_rational(v)}
            for tid, stage, v in report.pi_violations],
        "failed_nodes": [{"trajectory": n.trajectory_id, "stage": n.stage}
                         for n in report.failed_nodes],
    }


def symmetry_report_json(report) -> dict:
    return {
        "ok": report.ok,
        "comparisons": [
            {"trajectory": c.node.trajectory_id, "stage": c.node.stage,
             "before": c.before.status, "after": c.after.status, "ok": c.ok}
            for c in report.comparisons],
    }


def report_to_text(doc: dict) -> str:
    """Human-readable summary lines for any report document."""
    lines = []
    for key in ("command", "property", "market", "holds", "verified"):
        if key in doc:
            v = doc[key]
            if key == "market":
                lines.append(f"market status: {v['status']}")
                arb = v.get("arbitrage_nodes", [])
                lines.append(f"nodes checked: {len(v.get('nodes', []))}, "
                             f"arbitrage: {len(arb)}")
            else:
                lines.append(f"{key}: {v}")
    if doc.get("arbitrage"):
        a = doc["arbitrage"]
        lines.append(
            f"arbitrage at ({a['node']['trajectory']}, stage {a['node']['stage']}): "
            f"holding ({', '.join(a['holding'])}), "
            f"strict on {a['strict_trajectory']}")
    if doc.get("rank_warning"):
        lines.append(f"warning: image rank {doc['image_rank']} is below the "
                     f"transform's width, the image lies in a proper subspace; "
                     f"preservation theorems do not apply")
    if "parity" in doc:
        p = doc["parity"]
        lines.append(f"parity holds: {p['holds']} (strike {p['strike']})")
        for v in p["pi_violations"]:
            lines.append(f"  pi != 0 at ({v['trajectory']}, stage {v['stage']}): "
                         f"{v['value']}")
        for tid, msg in p["boundary_violations"]:
            lines.append(f"  boundary: {tid}: {msg}")
    if "symmetry" in doc and doc["symmetry"] is not None:
        lines.append(f"symmetry checks ok: {doc['symmetry']['ok']}")
    if "parity_factor" in doc:
        lines.append(f"parity factor: {doc['parity_factor']}")
    return "\n".join(lines) + "\n"
