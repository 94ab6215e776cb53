"""Finite trajectory markets: paths, nodes, portfolios, and classification.

A market is a finite set of price trajectories sharing an initial state. A
trajectory carries one price point per stage (a vector over assets 0..d in
a common currency, with the numeraire coordinate strictly positive), one
opaque information tag per stage, and a horizon m bounded by its length.
Horizons must form a stopping time: trajectories that agree through stage
m (prices and tags) agree on m itself.

A node is a stage-k prefix class: two (trajectory, k) pairs are the same
node exactly when their stage-0..k prefixes coincide in both prices and
tags. The set conditioned at a node collects the trajectories that pass
through it and are still alive (horizon > k); under the stopping-time
property this is the whole prefix class.

Each TrajectorySet builds its node tree once, on first use, in one pass
over the price points: every stored stage of every trajectory gets the id
of its prefix class, and each node keeps its stage, its first trajectory,
its prefix key and, lazily, its relative price. Node lookups, validation
and portfolio walks read the tree, so work outside the LPs grows linearly
with the market. The stopping-time check is one pass too: a trajectory
that ends at a node clashes with every longer-lived trajectory through it.

Relative prices are taken through the perspective map x = (s_j / s_nu),
j != nu. Per-node no-arbitrage is a convex-geometric statement about the
one-step increment set Delta = {X(S_{k+1}) - X(S_k)}:

    arbitrage-free     iff 0 in ri(co(Delta)),
    0-neutral          iff 0 in co(Delta),

and each verdict carries exact certificates. One relative-interior LP at
the origin settles an arbitrage-free node; only otherwise does the hull LP
decide between 0-neutral (weak witness from the dispersion LP) and
arbitrage (strict separator). Every certificate is re-validated by
certcheck, independently of the LP solver, before it leaves
classify_node. Verdicts are kept on the node tree, so each node of a
market is classified once however many callers ask; validation results
are kept on the market the same way.

Portfolios are node-keyed holding vectors plus a per-trajectory liquidation
stage and an initial relative value; the bank (numeraire) component is not
stored, being determined by self-financing. An explicit per-stage form with
a stored bank component exists so that the self-financing check has
something nontrivial to refuse. Self-financing is checked once per node
and liquidation stage, and terminal gains come from one walk down the
tree: the gain at a node is its parent's plus the parent's holding times
the step in relative prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .certcheck import check_hull_certificate, check_separation
from .geometry import (
    PointSet,
    is_disperse,
    is_zero_neutral_set,
    relative_interior_membership,
)
from .rational import as_fraction, dot, vadd, vec, vsub, zero_vec

_ZERO = Fraction(0)

ARBITRAGE_FREE = "arbitrage_free"
ZERO_NEUTRAL_ONLY = "zero_neutral_only"
ARBITRAGE_NODE = "arbitrage"

LOCALLY_ARBITRAGE_FREE = "locally_arbitrage_free"
LOCALLY_ZERO_NEUTRAL = "locally_zero_neutral"
HAS_ARBITRAGE_NODES = "has_arbitrage_nodes"


class MarketError(ValueError):
    pass


def perspective(s, nu: int):
    """Relative prices s_j / s_nu for j != nu, ascending j; needs s_nu > 0."""
    s = vec(s)
    if not 0 <= nu < len(s):
        raise MarketError(f"numeraire index {nu} out of range for {len(s)} assets")
    if s[nu] <= 0:
        raise MarketError(f"non-positive numeraire coordinate {s[nu]}")
    return tuple(s[j] / s[nu] for j in range(len(s)) if j != nu)


@dataclass(frozen=True)
class Trajectory:
    id: str
    prices: tuple
    tags: tuple
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "prices", tuple(vec(p) for p in self.prices))
        object.__setattr__(self, "tags", tuple(str(t) for t in self.tags))


@dataclass(frozen=True)
class TrajectorySet:
    """dim counts the non-numeraire assets: price points have dim+1 coords."""

    dim: int
    numeraire: int
    s0: tuple
    w0: str
    trajectories: tuple
    by_id: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "s0", vec(self.s0))
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        object.__setattr__(self, "by_id", {t.id: t for t in self.trajectories})

    @classmethod
    def build(cls, dim, numeraire, trajectories):
        """Infer the shared initial state from the first trajectory."""
        trajectories = tuple(trajectories)
        if not trajectories or not trajectories[0].prices:
            raise MarketError("cannot infer the initial state of an empty market")
        first = trajectories[0]
        return cls(dim, numeraire, first.prices[0], first.tags[0], trajectories)

    def trajectory(self, tid: str) -> Trajectory:
        t = self.by_id.get(tid)
        if t is None:
            raise MarketError(f"unknown trajectory {tid!r}")
        return t

    @cached_property
    def tree(self) -> NodeTree:
        """The prefix classes of every stored stage, built on first use."""
        return NodeTree(self.trajectories, self.numeraire)

    @cached_property
    def violations(self) -> tuple:
        """validate's result, computed on first use."""
        return validate(self)


class NodeTree:
    """Prefix classes of a trajectory set, numbered by first appearance.

    paths[i][k] is the node of trajectory i at stage k, for every stored
    stage. A horizon beyond the stored stages (an invalid market) repeats
    the last node, the class of the truncated prefix such a stage names.
    Parents are numbered before their children, and a node's parent is the
    previous entry of any path through it.
    """

    def __init__(self, trajectories: tuple, numeraire: int):
        self._trajectories = trajectories
        self._numeraire = numeraire
        self.stage = []  # node -> k
        self.first = []  # node -> index of the first trajectory through it
        self.row = {}  # trajectory id -> index, the last one on duplicates
        children = []  # node -> {(price point, tag): child}
        roots = {}
        paths = []
        for i, t in enumerate(trajectories):
            self.row[t.id] = i
            path = []
            level = roots
            for k, point in enumerate(t.prices):
                step = (point, t.tags[k] if k < len(t.tags) else None)
                v = level.get(step)
                if v is None:
                    v = level[step] = len(self.stage)
                    self.stage.append(k)
                    self.first.append(i)
                    children.append({})
                path.append(v)
                level = children[v]
            if path and isinstance(t.horizon, int) and t.horizon >= len(path):
                path += [path[-1]] * (t.horizon + 1 - len(path))
            paths.append(tuple(path))
        self.paths = tuple(paths)
        self._keys = [None] * len(self.stage)
        self._x = [None] * len(self.stage)
        self.verdicts = {}  # node -> NodeVerdict, filled by node_verdict

    def key(self, v: int) -> tuple:
        """The node's stage-0..k prices and tags, the value node_key gives."""
        key = self._keys[v]
        if key is None:
            t = self._trajectories[self.first[v]]
            k = self.stage[v]
            key = self._keys[v] = (t.prices[:k + 1], t.tags[:k + 1])
        return key

    def x(self, v: int) -> tuple:
        """Relative price at the node, through the market's numeraire."""
        x = self._x[v]
        if x is None:
            t = self._trajectories[self.first[v]]
            x = self._x[v] = perspective(t.prices[self.stage[v]], self._numeraire)
        return x

    @cached_property
    def index(self) -> dict:
        """Prefix key -> node, for resolving portfolio holdings."""
        return {self.key(v): v for v in range(len(self.stage))}

    @cached_property
    def members(self) -> list:
        """Node -> indices of the trajectories through it, in input order."""
        out = [[] for _ in self.stage]
        for i, t in enumerate(self._trajectories):
            for v in self.paths[i][:len(t.prices)]:
                out[v].append(i)
        return out


@dataclass(frozen=True)
class Node:
    """A stage-k prefix class, named by one representative trajectory.

    Identity is the prefix, not the pair: library-produced nodes use the
    first trajectory in input order as representative, and node_key gives
    the canonical comparison key for hand-built ones.
    """

    trajectory_id: str
    stage: int


@dataclass(frozen=True)
class Violation:
    code: str
    trajectory_id: "str | None"
    stage: "int | None"
    message: str

    def __str__(self):
        where = "" if self.trajectory_id is None else f" [{self.trajectory_id}"
        if where and self.stage is not None:
            where += f", stage {self.stage}"
        if where:
            where += "]"
        return f"{self.code}{where}: {self.message}"


def validate(ts: TrajectorySet) -> tuple:
    """Every violated structural invariant, empty iff the market is valid."""
    out = []

    def bad(code, tid, stage, message):
        out.append(Violation(code, tid, stage, message))

    if ts.dim < 1:
        bad("dimension", None, None, f"dim must be >= 1, got {ts.dim}")
        return tuple(out)
    width = ts.dim + 1
    if not 0 <= ts.numeraire < width:
        bad("numeraire-index", None, None,
            f"numeraire {ts.numeraire} out of range for {width} assets")
        return tuple(out)
    if not ts.trajectories:
        bad("empty-market", None, None, "at least one trajectory is required")
        return tuple(out)
    if len(ts.s0) != width:
        bad("initial-state", None, None,
            f"s0 has {len(ts.s0)} coordinates, expected {width}")
    seen_ids = set()
    for t in ts.trajectories:
        if t.id in seen_ids:
            bad("duplicate-id", t.id, None, "trajectory id is not unique")
        seen_ids.add(t.id)
        if not t.prices:
            bad("empty-trajectory", t.id, None, "no price points")
            continue
        if len(t.tags) != len(t.prices):
            bad("tag-count", t.id, None,
                f"{len(t.tags)} tags for {len(t.prices)} stages")
            continue
        for k, p in enumerate(t.prices):
            if len(p) != width:
                bad("price-width", t.id, k,
                    f"price point has {len(p)} coordinates, expected {width}")
            elif p[ts.numeraire] <= 0:
                bad("non-positive-numeraire", t.id, k,
                    f"numeraire coordinate {p[ts.numeraire]} at stage {k}")
        if not isinstance(t.horizon, int) or not 0 < t.horizon <= len(t.prices) - 1:
            bad("horizon", t.id, None,
                f"horizon {t.horizon} outside 1..{len(t.prices) - 1}")
        if len(ts.s0) == width and t.prices[0] != ts.s0:
            bad("initial-price", t.id, 0, "stage-0 prices differ from s0")
        if t.tags[0] != ts.w0:
            bad("initial-tag", t.id, 0, "stage-0 tag differs from w0")
    if out:
        return tuple(out)
    # stopping time: agreement through the shorter horizon forces equality,
    # so a trajectory ending at node v clashes with every trajectory that
    # passes v alive; pairs are reported in input order
    trajectories = ts.trajectories
    paths = ts.tree.paths
    ends = {}
    for i, t in enumerate(trajectories):
        ends.setdefault(paths[i][t.horizon], []).append(i)
    pairs = []
    for j, t in enumerate(trajectories):
        for v in paths[j][:t.horizon]:
            pairs.extend((min(i, j), max(i, j)) for i in ends.get(v, ()))
    for i, j in sorted(pairs):
        a, b = trajectories[i], trajectories[j]
        m = min(a.horizon, b.horizon)
        bad("stopping-time", b.id, m,
            f"agrees with {a.id} through stage {m} but horizons "
            f"{b.horizon} != {a.horizon}")
    return tuple(out)


def require_valid(ts: TrajectorySet):
    report = ts.violations
    if report:
        raise MarketError("invalid trajectory set: " + "; ".join(str(v) for v in report))


def _path(ts: TrajectorySet, t: Trajectory) -> tuple:
    # node ids along a member trajectory, one per stored stage
    tree = ts.tree
    i = tree.row.get(t.id)
    if i is None:
        raise MarketError(f"unknown trajectory {t.id!r}")
    return tree.paths[i]


def _node_id(ts: TrajectorySet, node: Node) -> int:
    t = ts.trajectory(node.trajectory_id)
    k = node.stage
    if not 0 <= k < t.horizon:
        raise MarketError(
            f"stage {k} is not a node of {t.id!r} (horizon {t.horizon})")
    return _path(ts, t)[k]


def node_key(ts: TrajectorySet, node: Node):
    """Canonical identity of a node: its full stage-0..k prefix."""
    return ts.tree.key(_node_id(ts, node))


def _alive(ts: TrajectorySet, v: int, k: int):
    # (index, trajectory) of the members of node v, at stage k, still alive
    trajectories = ts.trajectories
    for i in ts.tree.members[v]:
        t = trajectories[i]
        if t.horizon > k:
            yield i, t


def conditioned_set(ts: TrajectorySet, node: Node) -> tuple:
    """Ids of trajectories matching the node's prefix and still alive."""
    return tuple(t.id for _, t in _alive(ts, _node_id(ts, node), node.stage))


def enumerate_nodes(ts: TrajectorySet) -> tuple:
    """All nodes, stage-major, first-trajectory representatives."""
    out = []
    paths = ts.tree.paths
    horizon = max((t.horizon for t in ts.trajectories), default=0)
    for k in range(horizon):
        seen = set()
        for t, path in zip(ts.trajectories, paths):
            if t.horizon > k and path[k] not in seen:
                seen.add(path[k])
                out.append(Node(t.id, k))
    return tuple(out)


def reachable_prices(ts: TrajectorySet, node: Node) -> tuple:
    """Stage-(k+1) price points over the conditioned set, deduplicated."""
    k = node.stage
    out = []
    seen = set()
    for _, t in _alive(ts, _node_id(ts, node), k):
        p = t.prices[k + 1]
        if p not in seen:
            seen.add(p)
            out.append(p)
    return tuple(out)


def increment_set(ts: TrajectorySet, node: Node) -> PointSet:
    """One-step relative-price increments at the node, deduplicated.

    All conditioned trajectories share the stage-k price, so the set is
    {X(successor) - X(here)} in first-occurrence order; that order is also
    the order used when certificates are serialized.
    """
    tree = ts.tree
    v = _node_id(ts, node)
    k = node.stage
    here = tree.x(v)
    out = []
    seen = set()
    children = set()
    for i, _ in _alive(ts, v, k):
        child = tree.paths[i][k + 1]
        if child not in children:
            children.add(child)
            d = vsub(tree.x(child), here)
            if d not in seen:
                seen.add(d)
                out.append(d)
    return PointSet(ts.dim, tuple(out))


@dataclass(frozen=True)
class NodeVerdict:
    """Certified status of one node against its increment set.

    membership: all-positive-weight certificate when arbitrage-free, plain
    hull certificate when only 0-neutral, absent otherwise. separation:
    weak witness when only 0-neutral, strict separator at arbitrage nodes.
    """

    status: str
    membership: object
    separation: object


def _certified(ok: bool, what: str, node: Node):
    if not ok:
        raise MarketError(
            f"internal: {what} fails its certificate check at "
            f"({node.trajectory_id}, {node.stage})")


def classify_node(ts: TrajectorySet, node: Node) -> NodeVerdict:
    """Certified verdict of one node from its increment set Delta.

    The relative-interior LP at the origin settles arbitrage-free nodes
    alone. Otherwise the hull LP decides: 0 in co(Delta) makes the node
    0-neutral only, with the dispersion LP's weak witness; 0 outside gives
    an arbitrage node with a strict separator. Each certificate passes
    certcheck before it is returned, and a failure raises MarketError.
    """
    inc = increment_set(ts, node)
    origin = zero_vec(ts.dim)
    ri_cert = relative_interior_membership(inc, origin)
    if ri_cert is not None:
        _certified(check_hull_certificate(inc, origin, ri_cert, require_interior=True),
                   "the relative-interior membership", node)
        return NodeVerdict(ARBITRAGE_FREE, ri_cert, None)

    neutral = is_zero_neutral_set(inc)
    if neutral.zero_neutral:
        hull_cert = neutral.certificate
        _certified(check_hull_certificate(inc, origin, hull_cert),
                   "the hull membership", node)
        witness = is_disperse(inc).witness
        _certified(witness is not None and check_separation(inc, witness),
                   "the weak witness", node)
        return NodeVerdict(ZERO_NEUTRAL_ONLY, hull_cert, witness)

    separator = neutral.separator
    _certified(check_separation(inc, separator), "the strict separator", node)
    return NodeVerdict(ARBITRAGE_NODE, None, separator)


def node_verdict(ts: TrajectorySet, node: Node) -> NodeVerdict:
    """The node's verdict from the market's store, classified on first use."""
    verdicts = ts.tree.verdicts
    v = _node_id(ts, node)
    verdict = verdicts.get(v)
    if verdict is None:
        verdict = verdicts[v] = classify_node(ts, node)
    return verdict


@dataclass(frozen=True)
class MarketClassification:
    status: str
    nodes: tuple
    verdicts: tuple
    arbitrage_nodes: tuple

    @property
    def locally_arbitrage_free(self) -> bool:
        return self.status == LOCALLY_ARBITRAGE_FREE

    @property
    def locally_zero_neutral(self) -> bool:
        """Every node at least 0-neutral (true for arbitrage-free markets)."""
        return self.status in (LOCALLY_ARBITRAGE_FREE, LOCALLY_ZERO_NEUTRAL)


def classify_market(ts: TrajectorySet) -> MarketClassification:
    """Classify every node; the verdict order follows enumerate_nodes."""
    require_valid(ts)
    nodes = enumerate_nodes(ts)
    verdicts = tuple(node_verdict(ts, n) for n in nodes)
    arb = tuple(n for n, v in zip(nodes, verdicts) if v.status == ARBITRAGE_NODE)
    if arb:
        status = HAS_ARBITRAGE_NODES
    elif all(v.status == ARBITRAGE_FREE for v in verdicts):
        status = LOCALLY_ARBITRAGE_FREE
    else:
        status = LOCALLY_ZERO_NEUTRAL
    return MarketClassification(status, nodes, verdicts, arb)


@dataclass(frozen=True)
class Portfolio:
    """Node-keyed holdings; the bank component is implied by self-financing.

    holdings maps node keys (full prefixes) to d-vectors; liquidation maps
    trajectory ids to the stage N at which the position is closed. Holdings
    are zero from N onward and the market itself stops at each trajectory's
    horizon, so the holding at (S, k) is zero whenever k >= min(N, M).
    """

    v0: Fraction
    holdings: dict
    liquidation: dict

    def __post_init__(self):
        object.__setattr__(self, "v0", as_fraction(self.v0))
        object.__setattr__(
            self, "holdings",
            {key: vec(h) for key, h in self.holdings.items()})
        object.__setattr__(self, "liquidation", dict(self.liquidation))

    @property
    def bound(self) -> int:
        """The declared liquidation bound: max N over trajectories."""
        return max(self.liquidation.values(), default=0)


def _stop(p: Portfolio, t: Trajectory) -> int:
    n = p.liquidation.get(t.id)
    if n is None:
        raise MarketError(f"portfolio has no liquidation stage for {t.id!r}")
    return min(n, t.horizon)


def holding_at(ts: TrajectorySet, p: Portfolio, t: Trajectory, k: int):
    """Effective holding vector on trajectory t at stage k."""
    if k >= _stop(p, t):
        return zero_vec(ts.dim)
    h = p.holdings.get(ts.tree.key(_path(ts, t)[k]))
    if h is None:
        raise MarketError(f"holdings missing at node ({t.id!r}, {k})")
    return h


def _portfolio_report(ts: TrajectorySet, p: Portfolio) -> tuple:
    # validate_portfolio's violations, plus node -> holding for the holdings
    # keyed by a node of the market; each holdings key is hashed once
    tree = ts.tree
    located = [(h, tree.index.get(key)) for key, h in p.holdings.items()]
    held = {v: h for h, v in located if v is not None}
    out = []
    for t, path in zip(ts.trajectories, tree.paths):
        n = p.liquidation.get(t.id)
        if n is None:
            out.append(Violation("liquidation", t.id, None, "no liquidation stage"))
            continue
        if not isinstance(n, int) or n < 0:
            out.append(Violation("liquidation", t.id, None,
                                 f"liquidation stage {n!r} is not a stage"))
            continue
        for k in range(min(n, t.horizon)):
            if path[k] not in held:
                out.append(Violation("coverage", t.id, k, "holdings missing at node"))
    for h, v in located:
        if len(h) != ts.dim:
            out.append(Violation("holding-width", None, None,
                                 f"holding vector of length {len(h)}, expected {ts.dim}"))
            continue
        if v is None or all(c == 0 for c in h):
            continue
        k = tree.stage[v]
        for _, t in _alive(ts, v, k):
            n = p.liquidation.get(t.id)
            if isinstance(n, int) and n <= k:
                out.append(Violation(
                    "liquidated-holding", t.id, k,
                    "nonzero holding at a node past this trajectory's liquidation"))
    return tuple(out), held


def validate_portfolio(ts: TrajectorySet, p: Portfolio) -> tuple:
    """Structural violations: coverage, dimensions, liquidation coherence."""
    return _portfolio_report(ts, p)[0]


def require_valid_portfolio(ts: TrajectorySet, p: Portfolio):
    report = validate_portfolio(ts, p)
    if report:
        raise MarketError("invalid portfolio: " + "; ".join(str(v) for v in report))


def null_portfolio(ts: TrajectorySet, v0=0) -> Portfolio:
    return Portfolio(as_fraction(v0), {}, {t.id: 0 for t in ts.trajectories})


def _nodes_before(ts: TrajectorySet, stops) -> dict:
    # the nodes before each trajectory's stop, in first-occurrence order, as
    # the keys of a dict
    return dict.fromkeys(
        v for path, stop in zip(ts.tree.paths, stops) for v in path[:stop])


def constant_portfolio(ts: TrajectorySet, h, v0=0) -> Portfolio:
    """Hold h at every node until each trajectory's horizon."""
    h = vec(h)
    key = ts.tree.key
    holdings = {key(v): h for v in _nodes_before(ts, (t.horizon for t in ts.trajectories))}
    return Portfolio(as_fraction(v0), holdings, {t.id: t.horizon for t in ts.trajectories})


def restricted_portfolio(ts: TrajectorySet, node: Node, xi, v0=0) -> Portfolio:
    """Hold xi exactly at the node, liquidate everywhere at stage k+1.

    The liquidation stage is k+1 on every trajectory, conditioned or not;
    on trajectories whose horizon ends earlier the position simply never
    exists. Terminal value minus v0 is xi . increment on the conditioned
    trajectories and zero elsewhere.
    """
    xi = vec(xi)
    if len(xi) != ts.dim:
        raise MarketError(f"holding vector of length {len(xi)}, expected {ts.dim}")
    key = node_key(ts, node)
    k = node.stage
    zero = zero_vec(ts.dim)
    holdings = {key: xi}
    for v in _nodes_before(ts, (min(k + 1, t.horizon) for t in ts.trajectories)):
        holdings.setdefault(ts.tree.key(v), zero)
    return Portfolio(as_fraction(v0), holdings, {t.id: k + 1 for t in ts.trajectories})


def sum_portfolios(ts: TrajectorySet, a: Portfolio, b: Portfolio) -> Portfolio:
    """Stagewise sum; liquidation at the later of the two stages."""
    liquidation = {}
    for t in ts.trajectories:
        liquidation[t.id] = max(_stop(a, t), _stop(b, t))
    holdings = {}
    for node in enumerate_nodes(ts):
        t = ts.trajectory(node.trajectory_id)
        k = node.stage
        if k < min(liquidation[t.id], t.horizon):
            holdings[node_key(ts, node)] = vadd(
                holding_at(ts, a, t, k), holding_at(ts, b, t, k))
    return Portfolio(a.v0 + b.v0, holdings, liquidation)


def _trajectory(ts: TrajectorySet, s) -> Trajectory:
    return s if isinstance(s, Trajectory) else ts.trajectory(s)


def _relative_prices(ts: TrajectorySet, t: Trajectory) -> list:
    # relative price at every stored stage of a member trajectory
    x = ts.tree.x
    return [x(v) for v in _path(ts, t)[:len(t.prices)]]


def gains(ts: TrajectorySet, p: Portfolio, s, k: int) -> Fraction:
    """Accumulated gains sum(H_i . (X_{i+1} - X_i), i < k), exact."""
    t = _trajectory(ts, s)
    if not 0 <= k <= len(t.prices) - 1:
        raise MarketError(f"stage {k} out of range for {t.id!r}")
    total = _ZERO
    xs = _relative_prices(ts, t)
    for i in range(k):
        h = holding_at(ts, p, t, i)
        total += dot(h, vsub(xs[i + 1], xs[i]))
    return total


def reconstruct_bank_component(ts: TrajectorySet, p: Portfolio, s) -> tuple:
    """Bank series H0 per stage, determined by v0 and self-financing.

    H0_0 = v0 - H_0 . X_0 and rebalancing at stage k preserves value:
    H0_k - H0_{k-1} = -(H_k - H_{k-1}) . X_k.
    """
    t = _trajectory(ts, s)
    xs = _relative_prices(ts, t)
    hs = [holding_at(ts, p, t, k) for k in range(len(t.prices))]
    bank = [p.v0 - dot(hs[0], xs[0])]
    for k in range(1, len(t.prices)):
        bank.append(bank[k - 1] - dot(vsub(hs[k], hs[k - 1]), xs[k]))
    return tuple(bank)


def value(ts: TrajectorySet, p: Portfolio, s, k: int) -> Fraction:
    """Portfolio value H0_k + H_k . X_k from the reconstructed bank."""
    t = _trajectory(ts, s)
    if not 0 <= k <= len(t.prices) - 1:
        raise MarketError(f"stage {k} out of range for {t.id!r}")
    bank = reconstruct_bank_component(ts, p, t)
    h = holding_at(ts, p, t, k)
    return bank[k] + dot(h, ts.tree.x(_path(ts, t)[k]))


def terminal_gain(ts: TrajectorySet, p: Portfolio, s) -> Fraction:
    """Gains at the liquidation stage min(N, horizon); constant afterwards."""
    t = _trajectory(ts, s)
    return gains(ts, p, t, _stop(p, t))


def _terminal_gains(ts: TrajectorySet, p: Portfolio) -> list:
    """(id, terminal gain) of every trajectory, from one walk down the tree.

    The gain at a node is its parent's plus the parent's holding times the
    step in relative prices. Every stage before a trajectory's stop holds
    the node's own holding, so the gain at a node is the same on every
    trajectory that reaches it before stopping, and is computed once.
    """
    tree = ts.tree
    gain = {}
    held = {}
    out = []
    for t, path in zip(ts.trajectories, tree.paths):
        g = _ZERO
        for k in range(_stop(p, t)):
            v = path[k + 1]
            known = gain.get(v)
            if known is None:
                u = path[k]
                h = held.get(u)
                if h is None:
                    h = held[u] = p.holdings.get(tree.key(u))
                    if h is None:
                        raise MarketError(f"holdings missing at node ({t.id!r}, {k})")
                known = gain[v] = g + dot(h, vsub(tree.x(v), tree.x(u)))
            g = known
        out.append((t.id, g))
    return out


@dataclass(frozen=True)
class ExplicitPortfolio:
    """Per-trajectory stage lists with the bank component stored, not derived.

    Unlike the node-keyed form, nothing forces these lists to satisfy the
    self-financing identity, so check_self_financing has real work to do.
    """

    bank: dict
    holdings: dict
    liquidation: dict

    def __post_init__(self):
        object.__setattr__(
            self, "bank", {tid: vec(b) for tid, b in self.bank.items()})
        object.__setattr__(
            self, "holdings",
            {tid: tuple(vec(h) for h in hs) for tid, hs in self.holdings.items()})
        object.__setattr__(self, "liquidation", dict(self.liquidation))


def as_explicit(ts: TrajectorySet, p: Portfolio) -> ExplicitPortfolio:
    bank = {}
    holdings = {}
    for t in ts.trajectories:
        bank[t.id] = reconstruct_bank_component(ts, p, t)
        holdings[t.id] = tuple(holding_at(ts, p, t, k) for k in range(len(t.prices)))
    return ExplicitPortfolio(bank, holdings, dict(p.liquidation))


def _self_financing(ts: TrajectorySet, p: Portfolio, held: dict) -> bool:
    # value == v0 + gains along every trajectory, evaluated once per state:
    # a node reached while holding, or the node where the position is
    # liquidated. Either fixes every holding up to that stage, so the
    # trajectories sharing it share every operand. Past the stop nothing is
    # held on either side of a stage: bank and gains carry over unchanged
    # and each later comparison repeats the one made at the stop.
    tree = ts.tree
    zero = zero_vec(ts.dim)
    done = {}  # (node, holding there) -> (bank, accumulated gains, holding)
    for t, path in zip(ts.trajectories, tree.paths):
        stop = _stop(p, t)
        prev = None
        for k in range(min(stop + 1, len(t.prices))):
            v = path[k]
            state = (v, k < stop)
            cur = done.get(state)
            if cur is None:
                h = held[v] if k < stop else zero
                x = tree.x(v)
                if prev is None:
                    # value at stage 0 is v0 by the bank definition
                    cur = (p.v0 - dot(h, x), _ZERO, h)
                else:
                    bank, total, hp = prev
                    total += dot(hp, vsub(x, tree.x(path[k - 1])))
                    if h is zero:
                        # liquidation turns the position into bank
                        bank += dot(hp, x)
                        worth = bank
                    else:
                        bank -= dot(vsub(h, hp), x)
                        worth = bank + dot(h, x)
                    if worth != p.v0 + total:
                        return False
                    cur = (bank, total, h)
                done[state] = cur
            prev = cur
    return True


def check_self_financing(ts: TrajectorySet, p) -> bool:
    """True iff value equals v0 + gains at every stage of every trajectory.

    Node-keyed portfolios satisfy this by construction of the bank series;
    explicit portfolios are checked against their stored bank. The common
    initial value across trajectories is part of the check.
    """
    if isinstance(p, Portfolio):
        report, held = _portfolio_report(ts, p)
        return not report and _self_financing(ts, p, held)
    if not isinstance(p, ExplicitPortfolio):
        raise MarketError(f"not a portfolio: {type(p).__name__}")
    v0 = None
    for t in ts.trajectories:
        bank = p.bank.get(t.id)
        hs = p.holdings.get(t.id)
        n = p.liquidation.get(t.id)
        if bank is None or hs is None or n is None:
            return False
        stages = min(len(bank), len(hs), len(t.prices))
        if stages < min(n, t.horizon) + 1:
            return False
        xs = _relative_prices(ts, t)
        start = bank[0] + dot(hs[0], xs[0])
        if v0 is None:
            v0 = start
        elif start != v0:
            return False
        total = _ZERO
        for k in range(1, stages):
            total += dot(hs[k - 1], vsub(xs[k], xs[k - 1]))
            if bank[k] + dot(hs[k], xs[k]) != v0 + total:
                return False
        for k in range(min(n, t.horizon), stages):
            if any(c != 0 for c in hs[k]):
                return False
    return True


@dataclass(frozen=True)
class ArbitrageProof:
    """Record that a portfolio is an arbitrage: terminal gains >= 0 on every
    trajectory with strict inequality on a named one."""

    node: Node
    witness: object
    terminal_gains: tuple
    strict_trajectory: str


def find_arbitrage(ts: TrajectorySet):
    """The arbitrage built at the first node that is not arbitrage-free.

    Nodes are scanned in enumeration order; at the first node whose verdict
    is not arbitrage-free, the separation direction (weak witness at a
    0-neutral node, strict separator at an arbitrage node) becomes the
    holding of a restricted portfolio with v0 = 0. Returns None exactly
    when the market is locally arbitrage-free.
    """
    require_valid(ts)
    for node in enumerate_nodes(ts):
        verdict = node_verdict(ts, node)
        if verdict.status == ARBITRAGE_FREE:
            continue
        xi = verdict.separation.h
        portfolio = restricted_portfolio(ts, node, xi, 0)
        gains_list = tuple(_terminal_gains(ts, portfolio))
        if any(g < 0 for _, g in gains_list):
            raise MarketError("internal: witness portfolio lost money")
        strict = next((tid for tid, g in gains_list if g > 0), None)
        if strict is None:
            raise MarketError("internal: witness portfolio never gains")
        return portfolio, ArbitrageProof(node, verdict.separation, gains_list, strict)
    return None


@dataclass(frozen=True)
class PortfolioAudit:
    label: str
    min_gain: Fraction
    max_gain: Fraction
    argmin_trajectory: str
    is_arbitrage: bool


@dataclass(frozen=True)
class AuditReport:
    entries: tuple
    sup_inf: Fraction

    def entry(self, label: str) -> PortfolioAudit:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)


def portfolio_audit(ts: TrajectorySet, portfolios, labels=None,
                    include_null: bool = True) -> AuditReport:
    """Terminal-gain extremes and arbitrage flags over a finite family.

    The family is an explicit stand-in for the quantifier over all
    portfolios: sup_inf is exact for the supplied family only. The null
    portfolio is added by default so the sup-inf is never below zero.
    """
    require_valid(ts)
    portfolios = list(portfolios)
    if labels is None:
        labels = [f"P{i}" for i in range(len(portfolios))]
    labels = list(labels)
    if len(labels) != len(portfolios):
        raise MarketError("one label per portfolio required")
    if include_null:
        portfolios.insert(0, null_portfolio(ts))
        labels.insert(0, "null")
    entries = []
    for label, p in zip(labels, portfolios):
        if not isinstance(p, Portfolio):
            raise MarketError(f"portfolio {label!r} must be node-keyed, got "
                              f"{type(p).__name__}")
        if not check_self_financing(ts, p):
            raise MarketError(f"portfolio {label!r} is not self-financing")
        per = _terminal_gains(ts, p)
        min_id, min_gain = min(per, key=lambda e: (e[1], e[0]))
        max_gain = max(g for _, g in per)
        entries.append(PortfolioAudit(
            label, min_gain, max_gain, min_id,
            min_gain >= 0 and max_gain > 0))
    sup_inf = max(e.min_gain for e in entries)
    return AuditReport(tuple(entries), sup_inf)


def epsilon_witness(ts: TrajectorySet, p: Portfolio, eps) -> str:
    """A trajectory whose terminal gain is < eps; the argmin, in fact.

    In a locally 0-neutral market such a trajectory exists for every
    self-financing portfolio and every eps > 0; if none is found the
    precondition was violated and that is reported as an error.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise MarketError(f"epsilon must be positive, got {eps}")
    if not check_self_financing(ts, p):
        raise MarketError("portfolio is not self-financing")
    per = _terminal_gains(ts, p)
    min_id, min_gain = min(per, key=lambda e: (e[1], e[0]))
    if min_gain >= eps:
        raise MarketError(
            f"no trajectory with terminal gain below {eps}: minimum is "
            f"{min_gain}; the market is not locally 0-neutral or the "
            f"portfolio escapes the audited family")
    return min_id
