"""Call-put parity as a consequence of 0-neutrality, and its symmetries.

Four assets evolve jointly as S = (C, P, Y, B) with the bond B as numeraire
(index 3). The boundary condition at each trajectory's final stage is

    C_T = (Y_T - K B_T / K)_+ = (Y_T - K)_+,  P_T = (K - Y_T)_+,  B_T = K,

so pi(x) = x0 - x1 - x2 + 1 vanishes on every terminal relative price
point x = (C/B, P/B, Y/B). Whenever every node is 0-neutral, the current
relative price lies in the convex hull of its successors, the hull of any
subset of the plane {pi = 0} stays inside the plane, and backward induction
gives pi(X(S_i)) = 0 at every stage: the parity identity needs only
0-neutrality, not full absence of arbitrage.

build_parity_market constructs such markets directly: terminal leaves carry
the payoff boundary, interior relative prices are user-chosen convex
combinations of their children (strictly positive weights force every node
arbitrage-free, zero weights allow merely 0-neutral nodes).

The coordinate swap s -> (s1, s0, s3, s2)/(s2 s3) exchanges call with put
and underlying with bond; it is a fractional transform with matrix
L(s) = (s1, s0, s3, s2) and multiplier 1/s3, hence a no-arbitrage symmetry,
and it maps parity markets to parity markets (the transformed terminal
prices are again call/put payoffs on the transformed underlying). For any
induced map F(x) = (Ax + b)/(B.x + c) preserving the payoff boundary the
parity defect transforms linearly:

    pi(F(x)) (B.x + c) = a_F pi(x),

where a_F is a single coefficient read off the matrix entries; the parity
plane is invariant exactly because pi = 0 forces pi(F(x)) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .market import (
    ARBITRAGE_NODE,
    Trajectory,
    TrajectorySet,
    enumerate_nodes,
    node_verdict,
    perspective,
    require_valid,
)
from .rational import as_fraction, dot, format_rational, vec
from .symmetry import (
    RECIPROCAL_MULTIPLIER,
    FractionalTransform,
    InducedMap,
)

CALL, PUT, UNDERLYING, BOND = 0, 1, 2, 3


class ParityError(ValueError):
    pass


@dataclass(frozen=True)
class PiValue:
    """Exact parity defect x0 - x1 - x2 + 1 of one relative price point."""

    value: Fraction


def pi_functional(x) -> PiValue:
    x = vec(x)
    if len(x) != 3:
        raise ParityError(f"parity defect takes 3 relative coordinates, got {len(x)}")
    return PiValue(x[0] - x[1] - x[2] + 1)


@dataclass(frozen=True)
class ParitySpec:
    """Strike, terminal underlying values, stage times, and per-node weights.

    weights maps a path of branch indices (the choices taken so far) to the
    convex weights its node assigns to the children; missing paths default
    to the uniform vector. Every trajectory follows one index per stage and
    the final index selects the terminal underlying value.
    """

    strike: Fraction
    terminal_values: tuple
    times: tuple
    weights: dict = None

    def __post_init__(self):
        object.__setattr__(self, "strike", as_fraction(self.strike))
        object.__setattr__(self, "terminal_values", vec(self.terminal_values))
        object.__setattr__(self, "times", vec(self.times))
        if self.strike <= 0:
            raise ParityError(f"strike {self.strike} must be positive")
        if not self.terminal_values:
            raise ParityError("need at least one terminal underlying value")
        if any(y <= 0 for y in self.terminal_values):
            raise ParityError("terminal underlying values must be positive")
        if len(self.times) < 2:
            raise ParityError("need at least an initial and a final time")
        if any(a >= b for a, b in zip(self.times, self.times[1:])):
            raise ParityError("stage times must be strictly increasing")
        n = len(self.terminal_values)
        cleaned = {}
        for path, w in (self.weights or {}).items():
            path = tuple(int(j) for j in path)
            if any(not 0 <= j < n for j in path) or len(path) >= len(self.times) - 1:
                raise ParityError(f"weight path {path} does not name an interior node")
            w = vec(w)
            if len(w) != n:
                raise ParityError(f"weights at {path} must have {n} entries")
            if any(x < 0 for x in w) or sum(w) != 1:
                raise ParityError(f"weights at {path} must be convex: {w}")
            cleaned[path] = w
        object.__setattr__(self, "weights", cleaned)

    def node_weights(self, path) -> tuple:
        n = len(self.terminal_values)
        return self.weights.get(tuple(path),
                                tuple(Fraction(1, n) for _ in range(n)))


def demo_spec() -> ParitySpec:
    """Strike 1, terminal underlying in {2, 1/2}, uniform weights."""
    return ParitySpec(Fraction(1), (Fraction(2), Fraction(1, 2)),
                      (Fraction(0), Fraction(1, 2), Fraction(1)))


def terminal_relative_price(y, strike) -> tuple:
    y, k = as_fraction(y), as_fraction(strike)
    return ((max(y - k, Fraction(0)) / k),
            (max(k - y, Fraction(0)) / k),
            y / k)


def build_parity_market(spec: ParitySpec) -> TrajectorySet:
    """All-paths tree over the branch indices, built backward from payoffs.

    The bond is constant K, so absolute prices are K times the relative
    ones. Paths producing identical price sequences collapse to a single
    trajectory (uniform weights collapse interior branching entirely).
    """
    k = spec.strike
    n = len(spec.terminal_values)
    m = len(spec.times) - 1
    leaves = [terminal_relative_price(y, k) for y in spec.terminal_values]

    rel = {}

    def x_at(path) -> tuple:
        if path in rel:
            return rel[path]
        if len(path) == m:
            out = leaves[path[-1]]
        else:
            w = spec.node_weights(path)
            children = [x_at(path + (j,)) for j in range(n)]
            out = tuple(sum((wj * cj[i] for wj, cj in zip(w, children)),
                            Fraction(0)) for i in range(3))
        rel[path] = out
        return out

    tags = tuple(format_rational(t) for t in spec.times)
    trajs = []
    seen = {}
    for leaf in _paths(n, m):
        prices = tuple(tuple(c * k for c in x_at(leaf[:i])) + (k,)
                       for i in range(m + 1))
        if prices in seen:
            continue
        seen[prices] = True
        tid = "path-" + "-".join(str(j) for j in leaf)
        trajs.append(Trajectory(tid, prices, tags, m))
    return TrajectorySet.build(3, BOND, trajs)


def _paths(n, m):
    if m == 0:
        yield ()
        return
    for head in _paths(n, m - 1):
        for j in range(n):
            yield head + (j,)


def perturb_root(ts: TrajectorySet, asset: int, amount) -> TrajectorySet:
    """Shift one coordinate of the shared initial price on every trajectory."""
    amount = as_fraction(amount)
    if not 0 <= asset <= ts.dim:
        raise ParityError(f"asset index {asset} out of range")
    out = []
    for t in ts.trajectories:
        s0 = list(t.prices[0])
        s0[asset] += amount
        out.append(Trajectory(t.id, (tuple(s0),) + t.prices[1:], t.tags, t.horizon))
    return TrajectorySet.build(ts.dim, ts.numeraire, out)


@dataclass(frozen=True)
class ParityReport:
    """Boundary, per-node 0-neutrality, and the pointwise parity identity.

    The three checks are independent: the boundary and node verdicts carry
    the inductive derivation, pi_violations re-evaluates the identity
    directly at every stage of every trajectory.
    """

    ok: bool
    strike: Fraction
    boundary_violations: tuple
    node_verdicts: tuple
    pi_violations: tuple

    @property
    def failed_nodes(self) -> tuple:
        return tuple(n for n, v in self.node_verdicts if v.status == ARBITRAGE_NODE)


def boundary_shape_violations(ts: TrajectorySet) -> tuple:
    """Terminal prices that are not call/put payoffs on (underlying, bond).

    Checks C_T = (Y_T - B_T)_+ and P_T = (B_T - Y_T)_+ pointwise; the bond
    need not be constant, so this also applies to transformed markets.
    """
    out = []
    for t in ts.trajectories:
        c, p, y, b = t.prices[t.horizon]
        want_c = max(y - b, Fraction(0))
        want_p = max(b - y, Fraction(0))
        if c != want_c:
            out.append((t.id, f"terminal call price {c}, payoff requires {want_c}"))
        if p != want_p:
            out.append((t.id, f"terminal put price {p}, payoff requires {want_p}"))
    return tuple(out)


def verify_parity(ts: TrajectorySet) -> ParityReport:
    require_valid(ts)
    if ts.dim != 3 or ts.numeraire != BOND:
        raise ParityError(
            "parity markets have 4 assets (call, put, underlying, bond) "
            "with the bond as numeraire")

    boundary = list(boundary_shape_violations(ts))
    strikes = {t.prices[t.horizon][BOND] for t in ts.trajectories}
    if len(strikes) != 1:
        boundary.append((None, f"terminal bond price is not constant: "
                               f"{sorted(strikes)}"))
    strike = ts.trajectories[0].prices[ts.trajectories[0].horizon][BOND]

    verdicts = tuple((node, node_verdict(ts, node)) for node in enumerate_nodes(ts))
    neutral = all(v.status != ARBITRAGE_NODE for _, v in verdicts)

    pi_bad = []
    for t in ts.trajectories:
        for i in range(t.horizon + 1):
            d = pi_functional(perspective(t.prices[i], BOND)).value
            if d != 0:
                pi_bad.append((t.id, i, d))

    ok = not boundary and neutral and not pi_bad
    return ParityReport(ok, strike, tuple(boundary), verdicts, tuple(pi_bad))


def parity_swap_nas() -> FractionalTransform:
    """The no-arbitrage symmetry s -> (s1, s0, s3, s2)/(s2 s3).

    Exchanges call with put and underlying with bond, rescaled so prices
    are quoted per share instead of per currency unit; the linear part is
    the double swap and the multiplier is the reciprocal bond price.
    """
    L = ((0, 1, 0, 0),
         (1, 0, 0, 0),
         (0, 0, 0, 1),
         (0, 0, 1, 0))
    return FractionalTransform(L, BOND, BOND, RECIPROCAL_MULTIPLIER)


def transformed_parity_factor(f: InducedMap, market: TrajectorySet = None) -> Fraction:
    """The factor a_F with pi(F(x)) (B.x + c) = a_F pi(x) for parity maps.

    a_F is read off the first column of the matrix data; when a market is
    supplied the identity is checked exactly at every stage of every
    trajectory and any violation raises naming the location.
    """
    if not isinstance(f, InducedMap) or len(f.b) != 3:
        raise ParityError("expected the induced map of a 4-asset transform")
    a_f = f.A[0][0] - f.A[1][0] - f.A[2][0] + f.B[0]
    if market is not None:
        require_valid(market)
        if market.dim != 3:
            raise ParityError("parity factor verification needs a 4-asset market")
        for t in market.trajectories:
            for i in range(t.horizon + 1):
                x = perspective(t.prices[i], market.numeraire)
                den = dot(f.B, x) + f.c
                if den <= 0:
                    raise ParityError(
                        f"image undefined at trajectory {t.id!r} stage {i}: "
                        f"denominator {den}")
                lhs = pi_functional(f.apply(x)).value * den
                rhs = a_f * pi_functional(x).value
                if lhs != rhs:
                    raise ParityError(
                        f"parity factor identity fails at trajectory {t.id!r} "
                        f"stage {i}: {lhs} != {rhs}")
    return a_f
