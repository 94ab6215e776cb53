"""Market transformations f(s) = (f0(s)/L0(s)) L(s) and their induced maps.

A transform is an exact rational matrix L of shape (d'+1) x (d+1) together
with a source numeraire index (into the d+1 input coordinates), a
destination numeraire index (into the d'+1 output coordinates), and a
multiplier f0: the destination-numeraire row L0(s) scales the image so that
f(s)[nu'] = f0(s). The default multiplier f0(s) = s[nu] keeps the image
numeraire equal to the source numeraire coordinate; arbitrary positive
multipliers are supported as sample tables since only transformed absolute
prices depend on them.

On relative prices the transform induces the fractional-linear map

    F(x) = (A x + b) / (B . x + c),     domain {x : B . x + c > 0},

whose coefficients are entries of L read off around the two numeraire
rows/columns; F is independent of the multiplier, and F(X(s)) = X'(f(s))
holds exactly whenever both sides are defined. Maps of this form carry open
segments into open segments, which is the mechanism by which they preserve
per-node no-arbitrage; this module also provides the sample-based strict
segment check used to refute that property for maps not of this form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .geometry import open_segment_member
from .market import (
    ARBITRAGE_FREE,
    ARBITRAGE_NODE,
    ZERO_NEUTRAL_ONLY,
    Node,
    Trajectory,
    TrajectorySet,
    enumerate_nodes,
    node_verdict,
    require_valid,
)
from .rational import as_fraction, dot, vec, vscale

NUMERAIRE_MULTIPLIER = "numeraire"
RECIPROCAL_MULTIPLIER = "reciprocal_numeraire"

_LEVEL = {ARBITRAGE_NODE: 0, ZERO_NEUTRAL_ONLY: 1, ARBITRAGE_FREE: 2}


class SymmetryError(ValueError):
    pass


@dataclass(frozen=True)
class SampledMultiplier:
    """Finite table of strictly positive f0 values keyed by price point."""

    samples: tuple
    table: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        coerced = tuple((vec(s), as_fraction(v)) for s, v in self.samples)
        object.__setattr__(self, "samples", coerced)
        for s, v in coerced:
            if v <= 0:
                raise SymmetryError(f"multiplier value {v} at {s} is not positive")
        object.__setattr__(self, "table", dict(coerced))


@dataclass(frozen=True)
class FractionalTransform:
    L: tuple
    src_numeraire: int
    dst_numeraire: int
    multiplier: object = NUMERAIRE_MULTIPLIER

    def __post_init__(self):
        rows = tuple(vec(r) for r in self.L)
        if not rows:
            raise SymmetryError("transform matrix must be nonempty")
        width = len(rows[0])
        if width < 2 or len(rows) < 2:
            raise SymmetryError("transform matrix needs at least 2x2 entries")
        if any(len(r) != width for r in rows):
            raise SymmetryError("transform matrix rows differ in length")
        object.__setattr__(self, "L", rows)
        if not 0 <= self.src_numeraire < width:
            raise SymmetryError(
                f"source numeraire {self.src_numeraire} out of range for width {width}")
        if not 0 <= self.dst_numeraire < len(rows):
            raise SymmetryError(
                f"destination numeraire {self.dst_numeraire} out of range for "
                f"{len(rows)} rows")
        if not (self.multiplier in (NUMERAIRE_MULTIPLIER, RECIPROCAL_MULTIPLIER)
                or isinstance(self.multiplier, SampledMultiplier)):
            raise SymmetryError(f"unknown multiplier {self.multiplier!r}")

    @property
    def src_width(self) -> int:
        return len(self.L[0])

    @property
    def dst_width(self) -> int:
        return len(self.L)


def identity_transform(d: int, nu: int = 0) -> FractionalTransform:
    rows = tuple(tuple(Fraction(int(i == j)) for j in range(d + 1)) for i in range(d + 1))
    return FractionalTransform(rows, nu, nu)


def numeraire_swap(d: int, i: int, j: int) -> FractionalTransform:
    """Coordinate swap realizing the change of numeraire from i to j."""
    if not (0 <= i <= d and 0 <= j <= d):
        raise SymmetryError(f"swap indices {i},{j} out of range for d={d}")
    perm = list(range(d + 1))
    perm[i], perm[j] = perm[j], perm[i]
    rows = tuple(tuple(Fraction(int(perm[r] == cidx)) for cidx in range(d + 1))
                 for r in range(d + 1))
    return FractionalTransform(rows, i, i)


def multiplier_value(t: FractionalTransform, s) -> Fraction:
    s = vec(s)
    if t.multiplier == NUMERAIRE_MULTIPLIER:
        return s[t.src_numeraire]
    if t.multiplier == RECIPROCAL_MULTIPLIER:
        # inverts the unit of account: image numeraire becomes 1/s[nu]
        if s[t.src_numeraire] == 0:
            raise SymmetryError(f"reciprocal multiplier undefined at {s}")
        return 1 / s[t.src_numeraire]
    v = t.multiplier.table.get(s)
    if v is None:
        raise SymmetryError(f"no multiplier sample for price point {s}")
    return v


def apply_point(t: FractionalTransform, s):
    """Absolute image f(s) = (f0(s)/L0(s)) L(s); its nu' coordinate is f0(s)."""
    s = vec(s)
    if len(s) != t.src_width:
        raise SymmetryError(
            f"price point of width {len(s)}, transform expects {t.src_width}")
    image = tuple(dot(row, s) for row in t.L)
    den = image[t.dst_numeraire]
    if den <= 0:
        raise SymmetryError(
            f"destination numeraire row gives {den} at {s}; not in the domain")
    mult = multiplier_value(t, s)
    if mult <= 0:
        raise SymmetryError(f"multiplier {mult} at {s} is not positive")
    scale = mult / den
    return tuple(scale * x for x in image)


@dataclass(frozen=True)
class InducedMap:
    """F(x) = (A x + b)/(B . x + c) on the half-space B . x + c > 0."""

    A: tuple
    b: tuple
    B: tuple
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(vec(r) for r in self.A))
        object.__setattr__(self, "b", vec(self.b))
        object.__setattr__(self, "B", vec(self.B))
        object.__setattr__(self, "c", as_fraction(self.c))

    def apply(self, x):
        x = vec(x)
        den = dot(self.B, x) + self.c
        if den <= 0:
            raise SymmetryError(f"denominator {den} at {x}; outside the domain")
        return tuple((dot(row, x) + bi) / den for row, bi in zip(self.A, self.b))

    def __call__(self, x):
        return self.apply(x)


def induce_map(t: FractionalTransform) -> InducedMap:
    """Read F's coefficients out of L around the numeraire row and column.

    With output rows i != nu' and input columns k != nu (both ascending),
    A[r][p] = L[i_r][k_p], b[r] = L[i_r][nu], B[p] = L[nu'][k_p] and
    c = L[nu'][nu]; the multiplier plays no part.
    """
    if all(x == 0 for x in t.L[t.dst_numeraire]):
        raise SymmetryError("zero denominator row: destination numeraire row of L is zero")
    out_rows = [i for i in range(t.dst_width) if i != t.dst_numeraire]
    in_cols = [k for k in range(t.src_width) if k != t.src_numeraire]
    A = tuple(tuple(t.L[i][k] for k in in_cols) for i in out_rows)
    b = tuple(t.L[i][t.src_numeraire] for i in out_rows)
    B = tuple(t.L[t.dst_numeraire][k] for k in in_cols)
    c = t.L[t.dst_numeraire][t.src_numeraire]
    return InducedMap(A, b, B, c)


def verify_scalar_condition(f, samples) -> bool:
    """True iff f(lambda s) is a positive multiple of f(s) on every sample.

    f is a FractionalTransform (for which the condition holds identically,
    by homogeneity of L and positivity of the multiplier) or any sampled
    map given as a callable on price points.
    """
    if isinstance(f, FractionalTransform):
        t = f
        ev = lambda s: apply_point(t, s)
    else:
        ev = f
    for s, lam in samples:
        s = vec(s)
        lam = as_fraction(lam)
        if lam <= 0:
            raise SymmetryError(f"scale {lam} is not positive")
        v = vec(ev(s))
        u = vec(ev(vscale(lam, s)))
        pivot = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot is None:
            if any(x != 0 for x in u):
                return False
            continue
        mu = u[pivot] / v[pivot]
        if mu <= 0 or u != vscale(mu, v):
            return False
    return True


def image_rank(t: FractionalTransform) -> int:
    return linalg.rank([list(r) for r in t.L])


def compose(t1: FractionalTransform, t2: FractionalTransform) -> FractionalTransform:
    """The transform applying t1 first and t2 second; matrix L2 . L1.

    With the default multiplier on t2 the composed multiplier is exactly
    t1's (f1(s)[nu1'] = f1's multiplier value and t2 reads that coordinate);
    a sampled multiplier on t2 has no closed composition over an unknown
    domain and is rejected.
    """
    if t2.src_width != t1.dst_width:
        raise SymmetryError(
            f"cannot chain: second transform expects width {t2.src_width}, "
            f"first produces {t1.dst_width}")
    if t2.src_numeraire != t1.dst_numeraire:
        raise SymmetryError(
            f"cannot chain: second transform reads numeraire {t2.src_numeraire}, "
            f"first writes {t1.dst_numeraire}")
    if t2.multiplier != NUMERAIRE_MULTIPLIER:
        raise SymmetryError("composition requires the default multiplier on the second transform")
    L = tuple(tuple(sum((t2.L[i][k] * t1.L[k][j] for k in range(t1.dst_width)),
                        Fraction(0))
                    for j in range(t1.src_width))
              for i in range(t2.dst_width))
    return FractionalTransform(L, t1.src_numeraire, t2.dst_numeraire, t1.multiplier)


@dataclass(frozen=True)
class SegmentSample:
    a: tuple
    b: tuple
    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", vec(self.a))
        object.__setattr__(self, "b", vec(self.b))
        object.__setattr__(self, "params", vec(self.params))
        if len(self.a) != len(self.b):
            raise SymmetryError("segment endpoints differ in dimension")
        if any(not 0 < t < 1 for t in self.params):
            raise SymmetryError("segment parameters must lie strictly in (0, 1)")


def check_strict_icp(f, segments) -> bool:
    """Sampled strict inverse convexity preservation.

    For each segment and interior parameter t, the image of the point
    t a + (1-t) b must lie in the open segment between the endpoint images.
    A False is a proof of failure; a True is a proof only for maps known to
    be fractional-linear, and a sampling regression otherwise.
    """
    ev = f.apply if isinstance(f, InducedMap) else f
    for seg in segments:
        fa = vec(ev(seg.a))
        fb = vec(ev(seg.b))
        for t in seg.params:
            mid = tuple(t * p + (1 - t) * q for p, q in zip(seg.a, seg.b))
            if not open_segment_member(vec(ev(mid)), fa, fb):
                return False
    return True


def apply_transform(t: FractionalTransform, ts: TrajectorySet) -> TrajectorySet:
    """Transform every price point; tags, ids and horizons carry over.

    Raises naming the trajectory and stage on any domain violation, and
    refuses transforms whose image breaks market invariants (which needs a
    price collision, hence a non-injective transform).
    """
    require_valid(ts)
    if t.src_numeraire != ts.numeraire:
        raise SymmetryError(
            f"transform reads numeraire {t.src_numeraire} but the market uses "
            f"{ts.numeraire}")
    if t.src_width != ts.dim + 1:
        raise SymmetryError(
            f"transform expects {t.src_width} assets, market has {ts.dim + 1}")
    out = []
    for traj in ts.trajectories:
        prices = []
        for k, s in enumerate(traj.prices):
            try:
                prices.append(apply_point(t, s))
            except SymmetryError as e:
                raise SymmetryError(
                    f"domain violation at trajectory {traj.id!r} stage {k}: {e}")
        out.append(Trajectory(traj.id, tuple(prices), traj.tags, traj.horizon))
    image = TrajectorySet(t.dst_width - 1, t.dst_numeraire,
                          out[0].prices[0], ts.w0, tuple(out))
    report = image.violations
    if report:
        raise SymmetryError(
            "transformed market violates invariants (transform not injective "
            "on these prices): " + "; ".join(str(v) for v in report))
    return image


@dataclass(frozen=True)
class NodeComparison:
    node: Node
    before: object
    after: object
    ok: bool


@dataclass(frozen=True)
class SymmetryReport:
    ok: bool
    comparisons: tuple
    transformed: TrajectorySet


def verify_symmetry_on_market(t: FractionalTransform, ts: TrajectorySet) -> SymmetryReport:
    """Per-node check that the transform never degrades a verdict.

    arbitrage-free must map to arbitrage-free and 0-neutral to 0-neutral;
    a verdict is allowed to improve (the theorems state implications, not
    equivalences). Verdicts come from each market's verdict store, so nodes
    of ts classified earlier are not classified again.
    """
    image = apply_transform(t, ts)
    comparisons = []
    all_ok = True
    for node in enumerate_nodes(ts):
        before = node_verdict(ts, node)
        after = node_verdict(image, Node(node.trajectory_id, node.stage))
        ok = _LEVEL[after.status] >= _LEVEL[before.status]
        all_ok = all_ok and ok
        comparisons.append(NodeComparison(node, before, after, ok))
    return SymmetryReport(all_ok, tuple(comparisons), image)
