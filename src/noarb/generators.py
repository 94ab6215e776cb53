"""Seeded construction of trajectory markets with a prescribed verdict.

Each regime controls the local geometry of every node's increment set:

  arbitrage-free     0 is a strictly-positive-weight combination of the
                     children increments (the last increment balances a
                     random positive combination of the others),
  zero-neutral-only  flagged nodes keep one zero increment while all other
                     increments move strictly up in the first coordinate,
                     so 0 is in the hull but never in its relative
                     interior; the root is always flagged,
  plant-arbitrage    chosen nodes push every increment strictly positive
                     coordinatewise, leaving 0 outside the hull.

Increment magnitudes stay below a fraction of the smallest current price
coordinate, so generated prices remain strictly positive in every
coordinate. Construction never self-certifies: callers re-classify through
the usual market interface, and the regimes only make the intended verdict
deterministically true.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .market import MarketError, Trajectory, TrajectorySet
from .rational import as_fraction
from .symmetry import FractionalTransform

ARBITRAGE_FREE_REGIME = "arbitrage-free"
ZERO_NEUTRAL_REGIME = "zero-neutral-only"
PLANT_REGIME = "plant-arbitrage"
REGIMES = (ARBITRAGE_FREE_REGIME, ZERO_NEUTRAL_REGIME, PLANT_REGIME)

# a generated market has branching**depth trajectories; past this many,
# building and classifying it would outlast any caller's memory or patience
MAX_TRAJECTORIES = 65536


def trajectory_count_exceeds(depth: int, branching: int) -> bool:
    """Whether branching**depth > MAX_TRAJECTORIES, without a huge power."""
    if branching == 1:
        return False
    count = 1
    for _ in range(depth):
        count *= branching
        if count > MAX_TRAJECTORIES:
            return True
    return False


@dataclass(frozen=True)
class GeneratorParams:
    depth: int
    branching: int
    dim: int
    seed: int
    regime: str = ARBITRAGE_FREE_REGIME
    plant_count: int = 1
    low: Fraction = Fraction(1)
    high: Fraction = Fraction(8)

    def __post_init__(self):
        object.__setattr__(self, "low", as_fraction(self.low))
        object.__setattr__(self, "high", as_fraction(self.high))
        if self.depth < 1 or self.branching < 1 or self.dim < 1:
            raise MarketError("depth, branching and dim must all be at least 1")
        if trajectory_count_exceeds(self.depth, self.branching):
            raise MarketError(
                f"depth {self.depth} with branching {self.branching} gives more "
                f"than {MAX_TRAJECTORIES} trajectories")
        if self.regime not in REGIMES:
            raise MarketError(f"unknown regime {self.regime!r}")
        if self.regime == ZERO_NEUTRAL_REGIME and self.branching < 2:
            raise MarketError("zero-neutral-only nodes need branching >= 2")
        if not 0 < self.low <= self.high:
            raise MarketError("price bounds must satisfy 0 < low <= high")
        if self.regime == PLANT_REGIME:
            if not 1 <= self.plant_count <= self.node_count:
                raise MarketError(
                    f"plant count must be between 1 and {self.node_count}")

    @property
    def node_count(self) -> int:
        if self.branching == 1:
            return self.depth
        return (self.branching ** self.depth - 1) // (self.branching - 1)


def _interior_paths(b: int, depth: int) -> list:
    # stage-major, lexicographic within a stage
    out = [()]
    frontier = [()]
    for _ in range(depth - 1):
        frontier = [p + (j,) for p in frontier for j in range(b)]
        out.extend(frontier)
    return out


def _af_increments(rng: random.Random, d: int, b: int, eps: Fraction) -> list:
    # balance a random positive combination so 0 gets full-support weights
    while True:
        deltas = [tuple(eps * Fraction(rng.randint(-12, 12), 12) for _ in range(d))
                  for _ in range(b - 1)]
        lam = [Fraction(rng.randint(1, 9)) for _ in range(b)]
        last = tuple(-sum((lam[j] * deltas[j][i] for j in range(b - 1)), Fraction(0))
                     / lam[-1] for i in range(d))
        deltas.append(last)
        if b == 1:
            return [tuple(Fraction(0) for _ in range(d))]
        if len(set(deltas)) == b:
            return deltas


def _zno_increments(rng: random.Random, d: int, b: int, eps: Fraction) -> list:
    # one zero increment, all the others strictly up in coordinate 0
    while True:
        deltas = [tuple(Fraction(0) for _ in range(d))]
        for _ in range(b - 1):
            first = eps * Fraction(rng.randint(1, 12), 12)
            rest = tuple(eps * Fraction(rng.randint(-12, 12), 12)
                         for _ in range(d - 1))
            deltas.append((first,) + rest)
        if len(set(deltas)) == b:
            return deltas


def _arb_increments(rng: random.Random, d: int, b: int, eps: Fraction) -> list:
    while True:
        deltas = [tuple(eps * Fraction(rng.randint(12, 24), 12) for _ in range(d))
                  for _ in range(b)]
        if len(set(deltas)) == b:
            return deltas


def generate_market(params: GeneratorParams) -> TrajectorySet:
    rng = random.Random(params.seed)
    d, b = params.dim, params.branching
    planted = set()
    if params.regime == PLANT_REGIME:
        paths = _interior_paths(b, params.depth)
        planted = set(rng.sample(paths, params.plant_count))

    span = params.high - params.low
    root = tuple(params.low + span * Fraction(rng.randint(0, 24), 24)
                 for _ in range(d))

    leaves = []

    def grow(path, x, history):
        if len(path) == params.depth:
            leaves.append((path, history))
            return
        eps = min(x) / (20 * b)
        if params.regime == PLANT_REGIME:
            kind = "arb" if path in planted else "af"
        elif params.regime == ZERO_NEUTRAL_REGIME:
            kind = "zno" if (path == () or rng.randint(0, 1)) else "af"
        else:
            kind = "af"
        if kind == "arb":
            deltas = _arb_increments(rng, d, b, eps)
        elif kind == "zno":
            deltas = _zno_increments(rng, d, b, eps)
        else:
            deltas = _af_increments(rng, d, b, eps)
        for j, delta in enumerate(deltas):
            child = tuple(c + dc for c, dc in zip(x, delta))
            grow(path + (j,), child, history + [child])

    grow((), root, [root])

    tags = tuple(str(k) for k in range(params.depth + 1))
    trajs = []
    seen = set()
    for path, history in leaves:
        prices = tuple((Fraction(1),) + x for x in history)
        if prices in seen:
            continue
        seen.add(prices)
        tid = "t" + "-".join(str(j) for j in path)
        trajs.append(Trajectory(tid, prices, tags, params.depth))
    return TrajectorySet.build(d, 0, trajs)


def expected_status(params: GeneratorParams) -> str:
    from .market import (
        HAS_ARBITRAGE_NODES,
        LOCALLY_ARBITRAGE_FREE,
        LOCALLY_ZERO_NEUTRAL,
    )

    return {ARBITRAGE_FREE_REGIME: LOCALLY_ARBITRAGE_FREE,
            ZERO_NEUTRAL_REGIME: LOCALLY_ZERO_NEUTRAL,
            PLANT_REGIME: HAS_ARBITRAGE_NODES}[params.regime]


def random_transform(rng: random.Random, dim: int, *, nonneg: bool = False,
                     dst_numeraire: int = None) -> FractionalTransform:
    """Full-rank transform whose domain covers positive-coordinate markets.

    The destination-numeraire row is nonnegative with a positive entry, so
    the fractional denominator stays positive on positive prices; with
    nonneg=True every entry is nonnegative and full rank forces the whole
    image positive, which keeps compositions of such transforms defined.
    """
    width = dim + 1
    nu = rng.randrange(width) if dst_numeraire is None else dst_numeraire
    while True:
        rows = []
        for i in range(width):
            if i == nu or nonneg:
                row = [Fraction(rng.randint(0, 6), rng.randint(1, 3))
                       for _ in range(width)]
            else:
                row = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                       for _ in range(width)]
            rows.append(tuple(row))
        if all(x == 0 for x in rows[nu]):
            continue
        if linalg.rank([list(r) for r in rows]) == width:
            return FractionalTransform(tuple(rows), 0, nu)
