"""Slow independent oracles for convex membership questions.

Deliberately shares no code with the package under test: it carries its own
Gaussian elimination and decides membership by facet enumeration and by
simplex (barycentric) search instead of linear programming. Only fit for
small instances; used to cross-check the fast kernel on random inputs.

`fraction_simplex` is the reference for `noarb.simplex.solve`: the same
two-phase method and pivot rule on a tableau of `Fraction` entries, so the
two must return equal results, down to the pivot sequence's choice of
optimal basic solution.

The one exception is `two_route_classify_node`, a replay of the node
classifier as it once was: every LP solved on the increment set and again
on the reachable prices. It calls the package's geometry, because the
verdicts it is compared with must match certificate for certificate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), _ZERO)


def _rref(rows):
    """In-place reduced row echelon form; returns the pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _solve(matrix, rhs):
    """One exact solution of matrix.c = rhs with free variables at zero.

    Returns (solution, unique_flag) or None if inconsistent.
    """
    n = len(matrix[0]) if matrix else 0
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = _rref(rows)
    if n in pivots:
        return None
    for i in range(len(pivots), len(rows)):
        if rows[i][n] != 0:
            return None
    sol = [_ZERO] * n
    for i, c in enumerate(pivots):
        sol[c] = rows[i][n]
    return sol, len(pivots) == n


def _kernel_vector(matrix, ncols):
    """A nonzero kernel vector when the kernel has dimension exactly one."""
    rows = [list(r) for r in matrix]
    pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    f = free[0]
    v = [_ZERO] * ncols
    v[f] = _ONE
    for i, c in enumerate(pivots):
        v[c] = -rows[i][f] if i < len(rows) else _ZERO
    return v


def _dedupe(points):
    out = []
    seen = set()
    for p in points:
        t = tuple(Fraction(c) for c in p)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _affine_coords(points, x):
    """Coordinates of the set and target over an affine basis of the set.

    Returns (coords_of_points, coords_of_x_or_None). The basis is greedy:
    difference vectors against the first point, kept when they enlarge the
    span; r = len(basis) is the affine dimension.
    """
    base = points[0]
    basis = []
    for p in points[1:]:
        v = [a - b for a, b in zip(p, base)]
        probe = [list(w) for w in basis] + [v]
        if len(_rref(probe)) == len(basis) + 1:
            basis.append(v)
    columns = list(zip(*basis)) if basis else []

    def coords(p):
        v = [a - b for a, b in zip(p, base)]
        if not basis:
            return () if all(c == 0 for c in v) else None
        res = _solve([list(row) for row in columns], v)
        if res is None:
            return None
        return tuple(res[0])

    return [coords(p) for p in points], coords(x)


def hull_and_ri_membership(points, x):
    """(x in co(points), x in ri(co(points))) by exact facet enumeration."""
    pts = _dedupe(points)
    x = tuple(Fraction(c) for c in x)
    coords, cx = _affine_coords(pts, x)
    if cx is None:
        return False, False
    r = len(coords[0])
    if r == 0:
        return True, True
    in_hull = True
    in_ri = True
    for subset in itertools.combinations(range(len(coords)), r):
        diffs = [
            [coords[i][c] - coords[subset[0]][c] for c in range(r)]
            for i in subset[1:]
        ]
        normal = _kernel_vector(diffs, r)
        if normal is None:
            continue
        offset = _dot(normal, coords[subset[0]])
        vals = [_dot(normal, p) for p in coords]
        if all(v >= offset for v in vals):
            normal = [-c for c in normal]
            offset = -offset
            vals = [-v for v in vals]
        elif not all(v <= offset for v in vals):
            continue
        vx = _dot(normal, cx)
        if vx > offset:
            return False, False
        if vx == offset:
            in_ri = False
    return in_hull, in_ri


def hull_membership_by_simplices(points, x):
    """Convex weights over an affinely independent subset, or None.

    Enumerates subsets of at most d+1 points; barycentric coordinates are
    unique on affinely independent subsets, so the search is complete by
    the Caratheodory theorem.
    """
    pts = _dedupe(points)
    x = tuple(Fraction(c) for c in x)
    d = len(x)
    for k in range(1, min(len(pts), d + 1) + 1):
        for subset in itertools.combinations(range(len(pts)), k):
            matrix = [[pts[i][c] for i in subset] for c in range(d)]
            matrix.append([_ONE] * k)
            res = _solve(matrix, list(x) + [_ONE])
            if res is None or not res[1]:
                continue
            lam = res[0]
            if all(w >= 0 for w in lam):
                return [pts[i] for i in subset], lam
    return None


def grid_separator(points, span=2):
    """An integer direction h with h.y > 0 for all y, or None.

    Sound refuter for 0 in co(points); completeness not claimed.
    """
    d = len(points[0])
    for h in itertools.product(range(-span, span + 1), repeat=d):
        if all(c == 0 for c in h):
            continue
        hf = tuple(Fraction(c) for c in h)
        if all(_dot(hf, y) > 0 for y in points):
            return hf
    return None


def random_fraction(rng, num_bound=100, den_bound=100):
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def random_point(rng, dim, num_bound=100, den_bound=100):
    return tuple(random_fraction(rng, num_bound, den_bound) for _ in range(dim))


def _fraction_pivot(tableau, red, basis, r, c):
    row = tableau[r]
    piv = row[c]
    if piv != _ONE:
        inv = _ONE / piv
        row = [x * inv for x in row]
        tableau[r] = row
    # only the pivot row's nonzero columns change anything; rational
    # multiply-subtract is costly enough that skipping zeros pays off
    nz = [j for j, b in enumerate(row) if b != 0]
    for i, other in enumerate(tableau):
        if i == r:
            continue
        f = other[c]
        if f != 0:
            other = other[:]
            for j in nz:
                other[j] -= f * row[j]
            tableau[i] = other
    f = red[c]
    if f != 0:
        for j in nz:
            red[j] -= f * row[j]
    basis[r] = c


def _fraction_optimize(tableau, red, basis, allowed):
    """Run simplex iterations until optimal (True) or unbounded (False)."""
    while True:
        enter = -1
        for j in range(allowed):
            if red[j] > 0:
                enter = j
                break
        if enter < 0:
            return True
        leave = -1
        best_num = best_den = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                rhs = row[-1]
                if leave < 0:
                    leave, best_num, best_den = i, rhs, a
                else:
                    lhs = rhs * best_den
                    rhsc = best_num * a
                    if lhs < rhsc or (lhs == rhsc and basis[i] < basis[leave]):
                        leave, best_num, best_den = i, rhs, a
        if leave < 0:
            return False
        _fraction_pivot(tableau, red, basis, leave, enter)


def fraction_simplex(objective, rows, rhs):
    """(status, solution, value) of max c.z s.t. A z = b, z >= 0.

    Two-phase tableau method over `Fraction` entries with Bland's rule:
    entering is the smallest column with positive reduced cost, leaving the
    row minimizing rhs/pivot over positive pivots, ties to the smallest
    basis index. Phase 1 maximizes minus the sum of one artificial per row;
    leftover basic artificials are pivoted out and rows that keep one are
    dropped as redundant. Statuses are "optimal", "infeasible" and
    "unbounded"; solution and value are None unless optimal.
    """
    m = len(rows)
    n = len(objective)
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")
    objective = [Fraction(x) for x in objective]
    width = n + m + 1
    tableau = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("row length does not match objective length")
        b = Fraction(rhs[i])
        if b < 0:
            ext = [-Fraction(x) for x in row]
            b = -b
        else:
            ext = [Fraction(x) for x in row]
        ext.extend([_ZERO] * m)
        ext[n + i] = _ONE
        ext.append(b)
        tableau.append(ext)
    basis = list(range(n, n + m))

    # phase 1: maximize minus the sum of artificials; with the artificial
    # basis the reduced cost of column j is the column sum (zero on the
    # artificial columns themselves)
    red = [sum((tableau[i][j] for i in range(m)), _ZERO) for j in range(width)]
    for i in range(m):
        red[n + i] = _ZERO
    _fraction_optimize(tableau, red, basis, n + m)
    if red[-1] != 0:
        return "infeasible", None, None

    # pivot leftover artificials out; rows with no real pivot are redundant
    for i in range(m):
        if basis[i] >= n:
            c = next((j for j in range(n) if tableau[i][j] != 0), None)
            if c is not None:
                _fraction_pivot(tableau, red, basis, i, c)
    keep = [i for i in range(len(tableau)) if basis[i] < n]
    tableau = [tableau[i] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: real objective, entering restricted to the real variables
    red = []
    for j in range(width):
        s = objective[j] if j < n else _ZERO
        for i, row in enumerate(tableau):
            s -= objective[basis[i]] * row[j]
        red.append(s)
    if not _fraction_optimize(tableau, red, basis, n):
        return "unbounded", None, None
    solution = [_ZERO] * n
    for i, row in enumerate(tableau):
        solution[basis[i]] = row[-1]
    return "optimal", solution, -red[-1]


def stopping_time_violations(trajectories):
    """(code, id, stage, message) of every stopping-time clash, pairwise.

    The definition itself: two trajectories agreeing in prices and tags
    through the shorter of their horizons must have equal horizons. Pairs
    are visited in input order and the later trajectory is the one named.
    """
    out = []
    for i, a in enumerate(trajectories):
        for b in trajectories[i + 1:]:
            m = min(a.horizon, b.horizon)
            if (a.prices[:m + 1] == b.prices[:m + 1]
                    and a.tags[:m + 1] == b.tags[:m + 1]
                    and a.horizon != b.horizon):
                out.append(("stopping-time", b.id, m,
                            f"agrees with {a.id} through stage {m} but horizons "
                            f"{b.horizon} != {a.horizon}"))
    return out


def _relative(point, nu):
    return tuple(Fraction(c) / point[nu] for j, c in enumerate(point) if j != nu)


def _prefix(t, k):
    return (t.prices[:k + 1], t.tags[:k + 1])


def _node_portfolio_is_valid(ts, p):
    dim = ts.dim
    for t in ts.trajectories:
        n = p.liquidation.get(t.id)
        if not isinstance(n, int) or n < 0:
            return False
        if any(_prefix(t, k) not in p.holdings for k in range(min(n, t.horizon))):
            return False
    for key, h in p.holdings.items():
        if len(h) != dim:
            return False
        if all(c == 0 for c in h):
            continue
        k = len(key[0]) - 1
        for t in ts.trajectories:
            if k < len(t.prices) and _prefix(t, k) == key and t.horizon > k:
                n = p.liquidation[t.id]
                if n <= k:
                    return False
    return True


def _node_holdings(ts, p, t):
    """Effective holding per stored stage of t: zero from min(N, horizon)."""
    stop = min(p.liquidation[t.id], t.horizon)
    zero = (_ZERO,) * ts.dim
    return [p.holdings[_prefix(t, k)] if k < stop else zero
            for k in range(len(t.prices))]


def self_financing_by_trajectory(ts, p):
    """The self-financing check walked trajectory by trajectory, stage by stage.

    Node-keyed portfolios (holdings keyed by prefix, bank implied) and
    explicit ones (a stored bank and holding list per trajectory) alike.
    """
    explicit = hasattr(p, "bank")
    if not explicit and not _node_portfolio_is_valid(ts, p):
        return False
    v0 = None if explicit else p.v0
    for t in ts.trajectories:
        xs = [_relative(pt, ts.numeraire) for pt in t.prices]
        if explicit:
            bank, hs, n = p.bank.get(t.id), p.holdings.get(t.id), p.liquidation.get(t.id)
            if bank is None or hs is None or n is None:
                return False
            stages = min(len(bank), len(hs), len(t.prices))
            if stages < min(n, t.horizon) + 1:
                return False
            start = bank[0] + _dot(hs[0], xs[0])
            if v0 is None:
                v0 = start
            elif start != v0:
                return False
            if any(c != 0 for k in range(min(n, t.horizon), stages) for c in hs[k]):
                return False
        else:
            hs = _node_holdings(ts, p, t)
            stages = len(t.prices)
            bank = [p.v0 - _dot(hs[0], xs[0])]
            for k in range(1, stages):
                bank.append(bank[k - 1] - _dot([a - b for a, b in zip(hs[k], hs[k - 1])],
                                               xs[k]))
        total = _ZERO
        for k in range(1, stages):
            total += _dot(hs[k - 1], [a - b for a, b in zip(xs[k], xs[k - 1])])
            if bank[k] + _dot(hs[k], xs[k]) != v0 + total:
                return False
    return True


def terminal_gains_by_trajectory(ts, p):
    """(id, sum of H_k . (X_{k+1} - X_k) for k < min(N, horizon)) per trajectory."""
    out = []
    for t in ts.trajectories:
        xs = [_relative(pt, ts.numeraire) for pt in t.prices]
        hs = _node_holdings(ts, p, t)
        stop = min(p.liquidation[t.id], t.horizon)
        out.append((t.id, sum((_dot(hs[k], [a - b for a, b in zip(xs[k + 1], xs[k])])
                               for k in range(stop)), _ZERO)))
    return out


def two_route_classify_node(ts, node):
    """NodeVerdict of the two-route classifier, for equality checks.

    The relative-interior LP and the hull LP run on the increment set at the
    origin and again on the reachable relative prices at the node's own
    relative price; the routes must agree. The hull test is its own LP, and
    the strict separator comes from is_zero_neutral_set after it fails.
    """
    from noarb import market as mkt
    from noarb.certcheck import check_separation
    from noarb.geometry import (
        PointSet,
        hull_membership,
        is_disperse,
        is_zero_neutral_set,
        relative_interior_membership,
    )

    inc = mkt.increment_set(ts, node)
    origin = (_ZERO,) * ts.dim
    here = _relative(ts.trajectory(node.trajectory_id).prices[node.stage], ts.numeraire)
    reach = PointSet(ts.dim, tuple(
        _relative(p, ts.numeraire) for p in mkt.reachable_prices(ts, node)))

    ri_cert = relative_interior_membership(inc, origin)
    if (relative_interior_membership(reach, here) is None) != (ri_cert is None):
        raise AssertionError(f"relative-interior routes disagree at {node}")
    if ri_cert is not None:
        return mkt.NodeVerdict(mkt.ARBITRAGE_FREE, ri_cert, None)
    hull_cert = hull_membership(inc, origin)
    if (hull_membership(reach, here) is None) != (hull_cert is None):
        raise AssertionError(f"hull routes disagree at {node}")
    if hull_cert is not None:
        witness = is_disperse(inc).witness
        assert witness is not None and check_separation(inc, witness)
        return mkt.NodeVerdict(mkt.ZERO_NEUTRAL_ONLY, hull_cert, witness)
    separator = is_zero_neutral_set(inc).separator
    assert separator is not None and check_separation(inc, separator)
    return mkt.NodeVerdict(mkt.ARBITRAGE_NODE, None, separator)
