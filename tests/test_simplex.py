from __future__ import annotations

import random
from fractions import Fraction

from noarb import simplex
from noarb.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED

from oracles import fraction_simplex

F = Fraction


def _check_optimal(objective, rows, rhs, status, sol, value):
    assert status == OPTIMAL
    n = len(objective)
    assert len(sol) == n
    assert all(x >= 0 for x in sol)
    for row, b in zip(rows, rhs):
        assert sum((F(a) * x for a, x in zip(row, sol)), F(0)) == F(b)
    assert sum((F(c) * x for c, x in zip(objective, sol)), F(0)) == value


def test_simple_bounded_maximum():
    # maximize x + y with x + y + s = 1
    objective = [1, 1, 0]
    rows = [[1, 1, 1]]
    rhs = [1]
    status, sol, value = simplex.solve(objective, rows, rhs)
    _check_optimal(objective, rows, rhs, status, sol, value)
    assert value == 1


def test_two_constraints():
    # maximize 3x + 2y, x + y <= 4, x + 3y <= 6 via slacks
    objective = [3, 2, 0, 0]
    rows = [[1, 1, 1, 0], [1, 3, 0, 1]]
    rhs = [4, 6]
    status, sol, value = simplex.solve(objective, rows, rhs)
    _check_optimal(objective, rows, rhs, status, sol, value)
    assert value == 12
    assert sol[0] == 4 and sol[1] == 0


def test_infeasible():
    status, sol, value = simplex.solve([0, 0], [[1, 1]], [-1])
    assert status == INFEASIBLE and sol is None and value is None


def test_unbounded():
    status, sol, value = simplex.solve([1, 0], [[1, -1]], [0])
    assert status == UNBOUNDED and sol is None and value is None


def test_negative_rhs_feasible():
    # -x - y = -2 is x + y = 2 after the sign flip
    objective, rows, rhs = NEGATIVE_RHS
    status, sol, value = simplex.solve(objective, rows, rhs)
    _check_optimal(objective, rows, rhs, status, sol, value)
    assert value == 2


def test_redundant_rows_are_dropped():
    objective, rows, rhs = REDUNDANT_ROWS
    status, sol, value = simplex.solve(objective, rows, rhs)
    _check_optimal(objective, rows, rhs, status, sol, value)
    assert value == 1


def test_zero_rhs_degenerate():
    # only the zero solution is feasible
    objective = [1, 1]
    rows = [[1, 1]]
    rhs = [0]
    status, sol, value = simplex.solve(objective, rows, rhs)
    assert status == OPTIMAL
    assert sol == [0, 0]
    assert value == 0


def test_fractional_data():
    objective = [F(1, 3), F(1, 7), 0]
    rows = [[F(2, 5), F(1, 2), 1]]
    rhs = [F(3, 4)]
    status, sol, value = simplex.solve(objective, rows, rhs)
    _check_optimal(objective, rows, rhs, status, sol, value)
    assert value == F(1, 3) * (F(3, 4) / F(2, 5))


# Beale's degenerate example; cycles under naive pivoting
BEALE = (
    [0, 0, 0, F(3, 4), -150, F(1, 50), -6],
    [
        [1, 0, 0, F(1, 4), -60, F(-1, 25), 9],
        [0, 1, 0, F(1, 2), -90, F(-1, 50), 3],
        [0, 0, 1, 0, 0, 1, 0],
    ],
    [0, 0, 1],
)
REDUNDANT_ROWS = ([1, 1], [[1, 1], [2, 2], [1, 1]], [1, 2, 1])
NEGATIVE_RHS = ([1, 0], [[-1, -1]], [-2])
# two optimal bases; a ratio-test tie, broken by the smaller basis index,
# decides which one comes back
RATIO_TIE = ([-1, 0, 0, 2], [[-1, -1, 0, 1], [1, 2, 2, 0]], [0, 1])


def test_beale_cycling_instance():
    # Bland's rule must terminate at optimum 1/20
    objective, rows, rhs = BEALE
    status, sol, value = simplex.solve(objective, rows, rhs)
    _check_optimal(objective, rows, rhs, status, sol, value)
    assert value == F(1, 20)


def _random_lp(rng):
    n = rng.randint(1, 6)
    m = rng.randint(1, 4)
    def q():
        return F(rng.randint(-6, 6), rng.randint(1, 4))
    objective = [q() for _ in range(n)]
    rows = [[q() for _ in range(n)] for _ in range(m)]
    rhs = [q() for _ in range(m)]
    return objective, rows, rhs


def test_kernels_agree_bit_for_bit():
    rng = random.Random(20240517)
    corpus = [_random_lp(rng) for _ in range(300)]
    corpus += [BEALE, REDUNDANT_ROWS, NEGATIVE_RHS, RATIO_TIE]
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for objective, rows, rhs in corpus:
        got = simplex.solve(objective, rows, rhs)
        want = fraction_simplex(objective, rows, rhs)
        assert got == want, f"kernel diverged on {objective} {rows} {rhs}"
        statuses[got[0]] += 1
        if got[0] == OPTIMAL:
            for x, y in zip(got[1] + [got[2]], want[1] + [want[2]]):
                assert type(x) is type(y) is Fraction
    # the fuzz corpus must exercise every status
    assert all(v > 0 for v in statuses.values())


def test_deterministic_repeat():
    objective, rows, rhs = _random_lp(random.Random(7))
    a = simplex.solve(objective, rows, rhs)
    b = simplex.solve(objective, rows, rhs)
    assert a == b


def test_solution_optimality_against_enumeration():
    # brute-force check on tiny LPs: simplex optimum is an upper bound for
    # every feasible corner obtained by solving square subsystems
    import itertools

    from noarb import linalg

    rng = random.Random(99)
    checked = 0
    while checked < 40:
        objective, rows, rhs = _random_lp(rng)
        status, sol, value = simplex.solve(objective, rows, rhs)
        if status != OPTIMAL:
            continue
        checked += 1
        n = len(objective)
        for support in itertools.combinations(range(n), min(len(rows), n)):
            mat = [[row[j] for j in support] for row in rows]
            point = linalg.solve(mat, list(rhs))
            if point is None:
                continue
            full = [F(0)] * n
            for idx, j in enumerate(support):
                full[j] = point[idx]
            if any(x < 0 for x in full):
                continue
            if any(sum((F(a) * x for a, x in zip(row, full)), F(0)) != F(b)
                   for row, b in zip(rows, rhs)):
                continue
            cand = sum((c * x for c, x in zip(objective, full)), F(0))
            assert cand <= value
