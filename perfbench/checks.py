"""Output checks made apart from noarb, with plain `Fraction` arithmetic.

Nothing here imports noarb. Markets arrive as plain data: a `Market` holds
the trajectories' prices, tags and horizons exactly as they were handed to
the program (or read back from a JSON document). Each check returns a list
of problems; an empty list means the output passed.

A problem is a `(code, message)` pair. The code `rank_warning` marks the
one known fault the benchmark keeps (a full-rank transform reported as
rank-deficient); every other code means a wrong output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

AF, ZN, ARB = "arbitrage_free", "zero_neutral_only", "arbitrage"
WEAK, STRICT = "weak_arbitrage_witness", "strict_separator"
KNOWN_FAULT = "rank_warning"

MARKET_STATUS = {"arbitrage-free": "locally_arbitrage_free",
                 "zero-neutral-only": "locally_zero_neutral",
                 "plant-arbitrage": "has_arbitrage_nodes"}

_ZERO = Fraction(0)


# ------------------------------------------------------------ plain data

@dataclass(frozen=True)
class Traj:
    id: str
    prices: tuple
    tags: tuple
    horizon: int


@dataclass(frozen=True)
class Market:
    dim: int
    numeraire: int
    trajectories: tuple


@dataclass
class NodeData:
    """One prefix class: representative, stage, members and increments."""

    rep: str
    stage: int
    members: list = field(default_factory=list)
    increments: list = field(default_factory=list)


def q(text) -> Fraction:
    """A canonical 'p/q' or 'p' rational string as a Fraction."""
    if not isinstance(text, str):
        raise ValueError(f"rational is not a string: {text!r}")
    v = Fraction(text)
    if fmt(v) != text:
        raise ValueError(f"non-canonical rational {text!r}")
    return v


def fmt(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def market_from_doc(doc: dict) -> Market:
    trajs = tuple(Traj(t["id"], tuple(tuple(q(c) for c in p) for p in t["prices"]),
                       tuple(t["tags"]), t["horizon"])
                  for t in doc["trajectories"])
    return Market(doc["dim"], doc["numeraire"], trajs)


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -------------------------------------------------------------- geometry

def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), _ZERO)


def relative(s, nu: int) -> tuple:
    return tuple(s[j] / s[nu] for j in range(len(s)) if j != nu)


def market_nodes(m: Market) -> list:
    """Nodes stage-major in first-trajectory order, with their increments.

    Increments are X(S_{k+1}) - X(S_k) over the node's live trajectories in
    input order, deduplicated by first occurrence: the order certificates
    index into.
    """
    out = []
    horizon = max(t.horizon for t in m.trajectories)
    for k in range(horizon):
        index = {}
        for t in m.trajectories:
            if t.horizon <= k:
                continue
            key = (t.prices[:k + 1], t.tags[:k + 1])
            node = index.get(key)
            if node is None:
                node = index[key] = NodeData(t.id, k)
                out.append(node)
            node.members.append(t)
    for node in out:
        k = node.stage
        here = relative(node.members[0].prices[k], m.numeraire)
        seen = set()
        for t in node.members:
            nxt = relative(t.prices[k + 1], m.numeraire)
            d = tuple(a - b for a, b in zip(nxt, here))
            if d not in seen:
                seen.add(d)
                node.increments.append(d)
    return out


def membership_problems(inc, indices, weights, interior: bool) -> list:
    """Weights must be a convex combination of `inc` that sums to 0."""
    if len(indices) != len(weights):
        return [("certificate", "indices and weights differ in length")]
    if len(set(indices)) != len(indices) or any(not 0 <= i < len(inc) for i in indices):
        return [("certificate", "bad or repeated index")]
    if interior and (len(indices) != len(inc) or any(w <= 0 for w in weights)):
        return [("certificate", "weights are not all positive on every point")]
    if any(w < 0 for w in weights):
        return [("certificate", "negative weight")]
    if sum(weights, _ZERO) != 1:
        return [("certificate", f"weights sum to {sum(weights, _ZERO)}, not 1")]
    dim = len(inc[0])
    combo = [sum((w * inc[i][c] for i, w in zip(indices, weights)), _ZERO)
             for c in range(dim)]
    if any(c != 0 for c in combo):
        return [("certificate", f"combination is {combo}, not 0")]
    return []


def separation_problems(inc, kind: str, h) -> list:
    if len(h) != len(inc[0]):
        return [("certificate", "direction has the wrong width")]
    products = [dot(h, y) for y in inc]
    if kind == WEAK:
        if any(p < 0 for p in products) or not any(p > 0 for p in products):
            return [("certificate", "weak witness fails h.y >= 0 with one > 0")]
        return []
    if kind == STRICT:
        if any(p <= 0 for p in products):
            return [("certificate", "strict separator fails h.y > 0")]
        return []
    return [("certificate", f"unknown separation kind {kind!r}")]


def verdict_problems(inc, status, membership, separation) -> list:
    """Every verdict must carry the certificates that prove it.

    membership is None or (indices, weights); separation None or (kind, h).
    """
    if status == AF:
        if membership is None or separation is not None:
            return [("certificate", "arbitrage-free needs a membership certificate only")]
        return membership_problems(inc, *membership, interior=True)
    if status == ZN:
        if membership is None or separation is None or separation[0] != WEAK:
            return [("certificate", "0-neutral needs a hull certificate and a weak witness")]
        return (membership_problems(inc, *membership, interior=False)
                + separation_problems(inc, *separation))
    if status == ARB:
        if membership is not None or separation is None or separation[0] != STRICT:
            return [("certificate", "arbitrage needs a strict separator only")]
        return separation_problems(inc, *separation)
    return [("status", f"unknown node status {status!r}")]


def classification_problems(nodes, regime: str, status: str, verdicts) -> list:
    """verdicts: [(rep, stage, status, membership, separation)] in node order."""
    out = []
    if status != MARKET_STATUS[regime]:
        out.append(("status", f"market status {status}, regime {regime} "
                              f"requires {MARKET_STATUS[regime]}"))
    if len(verdicts) != len(nodes):
        return out + [("nodes", f"{len(verdicts)} verdicts for {len(nodes)} nodes")]
    statuses = set()
    for node, (rep, stage, st, mem, sep) in zip(nodes, verdicts):
        if (rep, stage) != (node.rep, node.stage):
            return out + [("nodes", f"node ({rep}, {stage}) where ({node.rep}, "
                                    f"{node.stage}) was expected")]
        out += verdict_problems(node.increments, st, mem, sep)
        statuses.add(st)
    want = {"locally_arbitrage_free": statuses <= {AF},
            "locally_zero_neutral": ARB not in statuses and ZN in statuses,
            "has_arbitrage_nodes": ARB in statuses}
    if not want.get(status, False):
        out.append(("status", f"market status {status} disagrees with node verdicts"))
    return out


# ------------------------------------------------------------- portfolios

def _by_id(m: Market) -> dict:
    return {t.id: t for t in m.trajectories}


def restricted_gains(m: Market, rep: str, stage: int, h) -> dict:
    """Gain h.(X_{k+1} - X_k) on trajectories through the node, 0 elsewhere."""
    node_t = _by_id(m)[rep]
    key = (node_t.prices[:stage + 1], node_t.tags[:stage + 1])
    out = {}
    for t in m.trajectories:
        if t.horizon > stage and (t.prices[:stage + 1], t.tags[:stage + 1]) == key:
            out[t.id] = dot(h, [a - b for a, b in zip(
                relative(t.prices[stage + 1], m.numeraire),
                relative(t.prices[stage], m.numeraire))])
        else:
            out[t.id] = _ZERO
    return out


def constant_gains(m: Market, h) -> dict:
    """h.(X_T - X_0) on every trajectory, T its horizon."""
    return {t.id: dot(h, [a - b for a, b in zip(
        relative(t.prices[t.horizon], m.numeraire),
        relative(t.prices[0], m.numeraire))]) for t in m.trajectories}


def witness_problems(m: Market, nodes, verdicts, witness) -> list:
    """find_arbitrage's answer, (rep, stage, kind, h, gains, strict) or None.

    It must sit at the first node that is not arbitrage-free, use that
    node's separation direction, and gain >= 0 everywhere and > 0 on the
    named trajectory, with gains recomputed here.
    """
    first = next((i for i, v in enumerate(verdicts) if v[2] != AF), None)
    if witness is None:
        return [] if first is None else [("witness", "arbitrage exists but none was returned")]
    if first is None:
        return [("witness", "arbitrage returned for an arbitrage-free market")]
    rep, stage, kind, h, gains, strict = witness
    node = nodes[first]
    if (rep, stage) != (node.rep, node.stage):
        return [("witness", f"witness at ({rep}, {stage}), first non-free node is "
                            f"({node.rep}, {node.stage})")]
    out = separation_problems(node.increments, kind, h)
    want = restricted_gains(m, rep, stage, h)
    got = dict(gains)
    if got != want or len(gains) != len(want):
        out.append(("witness", "terminal gains differ from h.(X_{k+1} - X_k)"))
    if any(g < 0 for g in got.values()):
        out.append(("witness", "witness loses on some trajectory"))
    if not got.get(strict, _ZERO) > 0:
        out.append(("witness", f"no strict gain on named trajectory {strict!r}"))
    return out


def audit_problems(regime: str, family_gains, entries, sup_inf) -> list:
    """entries: [(label, min, max, argmin, is_arbitrage)], null portfolio first.

    family_gains: per supplied portfolio, {trajectory id: terminal gain}.
    """
    out = []
    expected = [("null", {tid: _ZERO for tid in family_gains[0]})] if family_gains else []
    expected += [(f"P{i}", g) for i, g in enumerate(family_gains)]
    if len(entries) != len(expected):
        return [("audit", f"{len(entries)} entries for {len(expected)} portfolios")]
    for (label, gains), (got_label, lo, hi, argmin, flag) in zip(expected, entries):
        want_argmin, want_lo = min(gains.items(), key=lambda e: (e[1], e[0]))
        want_hi = max(gains.values())
        want_flag = want_lo >= 0 and want_hi > 0
        if (got_label, lo, hi, argmin, flag) != (label, want_lo, want_hi, want_argmin,
                                                  want_flag):
            out.append(("audit", f"entry {label} differs from recomputed gains"))
    if sup_inf != max((e[1] for e in entries), default=None):
        out.append(("audit", "sup_inf is not the largest minimum gain"))
    if regime == "arbitrage-free":
        if any(e[4] for e in entries) or sup_inf != 0:
            out.append(("audit", "arbitrage flagged on an arbitrage-free market"))
    if regime == "zero-neutral-only" and sup_inf != 0:
        out.append(("audit", f"sup_inf {sup_inf} on a 0-neutral market, expected 0"))
    return out


# ------------------------------------------------------- transforms, rank

def rank(rows) -> int:
    """Rank by fraction-exact Gaussian elimination."""
    mat = [list(r) for r in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][c] / mat[r][c]
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def image_point(L, src_nu: int, dst_nu: int, s) -> tuple:
    """f(s) = (s_nu / L_nu'(s)) L(s), the default numeraire multiplier."""
    image = [dot(row, s) for row in L]
    scale = s[src_nu] / image[dst_nu]
    return tuple(scale * x for x in image)


def transform_problems(L, src_nu, dst_nu, swap: bool, rc: int, report: dict,
                       source: Market, image_doc: dict) -> list:
    out = []
    width = len(L[0])
    r = rank(L)
    if rc != 0:
        out.append(("exit", f"transform --verify exited {rc}, expected 0"))
    if report.get("verified") is not True or not report["symmetry"]["ok"]:
        out.append(("symmetry", "transform --verify did not report verified: true"))
    if report.get("image_rank") != r:
        out.append(("rank", f"image_rank {report.get('image_rank')}, elimination gives {r}"))
    if report.get("rank_warning") != (r < width):
        out.append((KNOWN_FAULT, f"rank_warning {report.get('rank_warning')} for "
                                 f"rank {r} of width {width}"))
    comparisons = report["symmetry"]["comparisons"]
    nodes = market_nodes(source)
    if [(c["trajectory"], c["stage"]) for c in comparisons] != [(n.rep, n.stage) for n in nodes]:
        out.append(("symmetry", "comparisons do not cover the source nodes in order"))
    if swap and any(c["before"] != c["after"] for c in comparisons):
        out.append(("symmetry", "a numeraire swap changed a node status"))
    image = market_from_doc(image_doc)
    if image.numeraire != dst_nu or image.dim != len(L) - 1:
        out.append(("image", "output market has the wrong shape"))
    for a, b in zip(source.trajectories, image.trajectories):
        want = tuple(image_point(L, src_nu, dst_nu, s) for s in a.prices)
        if (b.id, b.tags, b.horizon, b.prices) != (a.id, a.tags, a.horizon, want):
            out.append(("image", f"output trajectory {b.id} is not the image of {a.id}"))
            break
    if len(image.trajectories) != len(source.trajectories):
        out.append(("image", "output market lost trajectories"))
    return out


# ------------------------------------------------------------------- CLI

def expected_check_exit(regime: str, prop: str) -> int:
    holds = {"--local-arbitrage-free": regime == "arbitrage-free",
             "--local-zero-neutral": regime != "plant-arbitrage",
             "--find-arbitrage": regime == "arbitrage-free"}[prop]
    return 0 if holds else 1


def report_verdicts(report_market: dict) -> list:
    """(rep, stage, status, membership, separation) from a check report."""
    out = []
    for n in report_market["nodes"]:
        mem = n["membership"]
        sep = n["separation"]
        out.append((n["trajectory"], n["stage"], n["status"],
                    None if mem is None else (tuple(mem["indices"]),
                                              tuple(q(w) for w in mem["weights"])),
                    None if sep is None else (sep["kind"], tuple(q(c) for c in sep["h"]))))
    return out


def check_report_problems(m: Market, regime: str, prop: str, rc: int, report: dict) -> list:
    """`check` report: exit code, certificates against the embedded increments."""
    out = []
    want_rc = expected_check_exit(regime, prop)
    if rc != want_rc:
        out.append(("exit", f"check {prop} exited {rc}, expected {want_rc}"))
    if report.get("holds") is not (want_rc == 0):
        out.append(("exit", f"report holds={report.get('holds')} disagrees with exit {want_rc}"))
    nodes = market_nodes(m)
    rm = report["market"]
    embedded = [[tuple(q(c) for c in p) for p in n["increments"]] for n in rm["nodes"]]
    if embedded != [n.increments for n in nodes]:
        out.append(("increments", "report increments differ from the market's"))
    verdicts = report_verdicts(rm)
    for inc, v in zip(embedded, verdicts):
        out += verdict_problems(inc, v[2], v[3], v[4])
    out += [p for p in classification_problems(nodes, regime, rm["status"], verdicts)
            if p[0] != "certificate"]
    if prop == "--find-arbitrage":
        a = report.get("arbitrage")
        witness = None if a is None else (
            a["node"]["trajectory"], a["node"]["stage"], a["witness_kind"],
            tuple(q(c) for c in a["holding"]),
            [(tid, q(g)) for tid, g in a["terminal_gains"]], a["strict_trajectory"])
        out += witness_problems(m, nodes, verdicts, witness)
    return out


def generated_problems(rc: int, doc: dict, depth: int, branching: int, regime: str) -> list:
    """`generate` output: shape, positivity and the regime's own signature.

    plant-arbitrage must show a node whose increments are all strictly
    positive (h = 1 separates); zero-neutral-only must flag the root with a
    zero increment and first coordinates >= 0, > 0 elsewhere (h = e_1).
    """
    if rc != 0:
        return [("exit", f"generate exited {rc}, expected 0")]
    m = market_from_doc(doc)
    out = []
    if len(m.trajectories) != branching ** depth:
        out.append(("generate", f"{len(m.trajectories)} trajectories, expected "
                                f"{branching ** depth}"))
    if any(c <= 0 for t in m.trajectories for p in t.prices for c in p):
        out.append(("generate", "non-positive price"))
    nodes = market_nodes(m)
    if len(nodes) != (branching ** depth - 1) // (branching - 1):
        out.append(("generate", f"{len(nodes)} nodes"))
    if regime == "plant-arbitrage":
        if not any(all(c > 0 for y in n.increments for c in y) for n in nodes):
            out.append(("generate", "no planted arbitrage node"))
    elif regime == "zero-neutral-only":
        inc = nodes[0].increments
        e1 = (Fraction(1),) + (_ZERO,) * (m.dim - 1)
        if (tuple(_ZERO for _ in range(m.dim)) not in inc
                or separation_problems(inc, WEAK, e1)):
            out.append(("generate", "root is not flagged 0-neutral-only"))
    return out


def pi_defects(m: Market) -> set:
    """(trajectory, stage) where x0 - x1 - x2 + 1 != 0 at X = S / S_bond."""
    out = set()
    for t in m.trajectories:
        for k, s in enumerate(t.prices[:t.horizon + 1]):
            x = relative(s, 3)
            if x[0] - x[1] - x[2] + 1 != 0:
                out.add((t.id, k))
    return out


def parity_problems(rc: int, report: dict, valid: bool) -> list:
    """Valid specs: holds, factor -1, pi = 0 everywhere; else exit 1 at the root."""
    out = []
    m = market_from_doc(report["market_document"])
    defects = pi_defects(m)
    reported = {(v["trajectory"], v["stage"]) for v in report["parity"]["pi_violations"]}
    if reported != defects:
        out.append(("parity", "pi violations differ from the recomputed defects"))
    s = m.trajectories[0].prices[0]
    root = (s[1] / (s[2] * s[3]), s[0] / (s[2] * s[3]), 1 / s[2], 1 / s[3])
    if [q(c) for c in report["transformed_root"]] != list(root):
        out.append(("parity", "transformed root is not (s1, s0, s3, s2)/(s2 s3)"))
    if valid:
        if rc != 0 or report.get("holds") is not True or defects:
            out.append(("parity", f"valid spec: exit {rc}, holds {report.get('holds')}"))
        if report.get("parity_factor") != "-1":
            out.append(("parity", f"parity factor {report.get('parity_factor')}, expected -1"))
    else:
        if rc != 1 or report.get("holds") is not False or not defects:
            out.append(("parity", f"perturbed spec: exit {rc}, expected 1"))
    return out
