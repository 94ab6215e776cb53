"""Dense exact simplex over rationals, on an integer tableau.

Solves

    maximize  c . z    subject to    A z = b,  z >= 0

by the two-phase tableau method with Bland's smallest-index anti-cycling
rule. Every comparison is exact, so the solver terminates on all inputs and
is fully deterministic: a fixed input yields a fixed pivot sequence and a
fixed optimal basic solution.

Each tableau row is a list of Python integer numerators over one positive
integer denominator, and the reduced-cost row rides along as the last row.
A pivot updates the other rows by integer multiply-subtract and then
divides each updated row by the gcd of its entries and its denominator (a
gcd sweep, where Edmonds (1967) divides exactly by the previous pivot; both
keep the tableau free of per-entry fractions). Ratio tests and reduced-cost
signs are integer comparisons: a denominator is positive and shared by its
whole row, so it never changes a sign or a within-row ratio. Integers are
arbitrary precision, so nothing overflows and nothing is rounded.

Phase 1 appends one artificial variable per row (after flipping rows to make
the right-hand side nonnegative) and maximizes minus their sum; the problem
is feasible iff that optimum is exactly zero. Artificials still basic at the
end are pivoted out, and rows that cannot be pivoted out are redundant and
dropped. Phase 2 then maximizes the real objective over the original
variables only, so the artificial columns are dropped with the rows.

Pivot rule (the pivot sequence is part of the contract: which optimal basic
solution comes back depends on it, and certificates are read off it):
  entering: the smallest column index with strictly positive reduced cost;
  leaving:  the row minimizing rhs/pivot over strictly positive pivot
            entries, ties broken by the smallest basis variable index.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# the kernel's name, printed by the benchmark; there is only this one
KERNEL = "python"


def _integerize(values):
    """Integer numerators of `values` over their least common denominator."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _reduced(row, den):
    """The row and denominator divided by their common gcd."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _pivot(rows, dens, r, c):
    """Make column c a unit column with its one at row r, in every row."""
    prow = rows[r]
    p = prow[c]
    if p < 0:
        prow = [-v for v in prow]
        p = -p
    # row r divided by its pivot entry: the same numerators over p
    prow, dr = _reduced(prow, p)
    rows[r] = prow
    dens[r] = dr
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            rows[i], dens[i] = _reduced(
                [a * dr - f * b for a, b in zip(row, prow)], dens[i] * dr)


def _optimize(rows, dens, basis, allowed):
    """Run simplex iterations until optimal (True) or unbounded (False)."""
    m = len(basis)
    while True:
        red = rows[-1]
        enter = next((j for j in range(allowed) if red[j] > 0), -1)
        if enter < 0:
            return True
        leave = -1
        for i in range(m):
            row = rows[i]
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
        _pivot(rows, dens, leave, enter)
        basis[leave] = enter


def solve(objective, rows, rhs):
    """Return (status, solution, value) for the standard-form LP.

    status is "optimal", "infeasible" or "unbounded"; solution is the
    optimal basic solution as a list of Fractions (length len(objective))
    and value the exact optimum, both None unless optimal.
    """
    m = len(rows)
    n = len(objective)
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")
    width = n + m + 1
    tableau = []
    dens = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("row length does not match objective length")
        nums, den = _integerize([*row, rhs[i]])
        if nums[-1] < 0:
            nums = [-v for v in nums]
        # the artificial identity column goes before the rhs slot
        nums[n:n] = [0] * m
        nums[n + i] = den
        tableau.append(nums)
        dens.append(den)
    basis = list(range(n, n + m))

    # phase 1: maximize minus the sum of artificials; with the artificial
    # basis the reduced cost of column j is the column sum (zero on the
    # artificial columns themselves)
    common = lcm(*dens)
    scales = [common // d for d in dens]
    red = [sum(row[j] * s for row, s in zip(tableau, scales)) for j in range(width)]
    red[n:n + m] = [0] * m
    red, redden = _reduced(red, common)
    tableau.append(red)
    dens.append(redden)
    _optimize(tableau, dens, basis, n + m)
    if tableau[-1][-1] != 0:
        return INFEASIBLE, None, None

    # pivot leftover artificials out; rows with no real pivot are redundant
    for i in range(m):
        if basis[i] >= n:
            row = tableau[i]
            c = next((j for j in range(n) if row[j] != 0), None)
            if c is not None:
                _pivot(tableau, dens, i, c)
                basis[i] = c
    keep = [i for i in range(m) if basis[i] < n]
    tableau = [tableau[i][:n] + tableau[i][-1:] for i in keep]
    dens = [dens[i] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: real objective, entering restricted to the real variables;
    # red = c - sum_i c[basis[i]] * row_i, over the denominator cden * common
    cnums, cden = _integerize(objective)
    common = lcm(*dens)
    weights = [cnums[b] * (common // d) for b, d in zip(basis, dens)]
    red = [sum(row[j] * w for row, w in zip(tableau, weights)) for j in range(n + 1)]
    red = [cj * common - s for cj, s in zip(cnums + [0], red)]
    red, redden = _reduced(red, cden * common)
    tableau.append(red)
    dens.append(redden)
    if not _optimize(tableau, dens, basis, n):
        return UNBOUNDED, None, None
    solution = [Fraction(0)] * n
    for i, b in enumerate(basis):
        solution[b] = Fraction(tableau[i][-1], dens[i])
    return OPTIMAL, solution, -Fraction(tableau[-1][-1], dens[-1])
