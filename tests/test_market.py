from __future__ import annotations

import random
from fractions import Fraction

import pytest

from noarb import market as mkt
from noarb.certcheck import check_hull_certificate, check_separation
from noarb.geometry import STRICT_SEPARATOR, WEAK_ARBITRAGE_WITNESS
from noarb.market import (
    ARBITRAGE_FREE,
    ARBITRAGE_NODE,
    HAS_ARBITRAGE_NODES,
    LOCALLY_ARBITRAGE_FREE,
    LOCALLY_ZERO_NEUTRAL,
    ZERO_NEUTRAL_ONLY,
    ExplicitPortfolio,
    MarketError,
    Node,
    Trajectory,
    TrajectorySet,
    as_explicit,
    check_self_financing,
    classify_market,
    classify_node,
    conditioned_set,
    constant_portfolio,
    enumerate_nodes,
    epsilon_witness,
    find_arbitrage,
    gains,
    increment_set,
    node_key,
    null_portfolio,
    perspective,
    portfolio_audit,
    reachable_prices,
    reconstruct_bank_component,
    restricted_portfolio,
    sum_portfolios,
    terminal_gain,
    validate,
    validate_portfolio,
    value,
)
from noarb.rational import vsub

F = Fraction


def _traj(tid, prices, horizon=None, tags=None):
    prices = tuple(tuple(p) for p in prices)
    if tags is None:
        tags = tuple(str(k) for k in range(len(prices)))
    if horizon is None:
        horizon = len(prices) - 1
    return Trajectory(tid, prices, tags, horizon)


def _paths_market(paths, dim=1, numeraire=0):
    trajs = [_traj(f"T{i}", path) for i, path in enumerate(paths)]
    return TrajectorySet.build(dim, numeraire, trajs)


def _one_step(increments):
    # d=1, numeraire 0, X moves from 1 to 1 + delta
    return _paths_market([[(1, 1), (1, 1 + F(d))] for d in increments])


def _binomial(depth, up=F(2), down=F(1, 2)):
    paths = []
    for bits in range(2 ** depth):
        x = F(1)
        path = [(1, x)]
        for j in range(depth):
            x = x * (up if (bits >> j) & 1 else down)
            path.append((1, x))
        paths.append(path)
    return _paths_market(paths)


def test_perspective_examples():
    assert perspective((2, 4, 6), 0) == (F(2), F(3))
    assert perspective((1, F(1, 3), F(7, 2)), 0) == (F(1, 3), F(7, 2))
    assert perspective((F(1, 2), F(1, 4), F(5, 4), 1), 3) == (F(1, 2), F(1, 4), F(5, 4))
    with pytest.raises(MarketError):
        perspective((0, 1), 0)
    with pytest.raises(MarketError):
        perspective((-1, 1), 0)
    with pytest.raises(MarketError):
        perspective((1, 1), 2)


def test_validate_clean_market():
    ts = _paths_market([[(1, 2), (1, 2)]])
    assert validate(ts) == ()


def test_validate_non_positive_numeraire():
    ts = _paths_market([[(1, 1), (0, 2)]])
    report = validate(ts)
    assert any(v.code == "non-positive-numeraire" and v.trajectory_id == "T0"
               and v.stage == 1 for v in report)


def test_validate_stopping_time():
    a = _traj("A", [(1, 1), (1, 2), (1, 3)], horizon=1)
    b = _traj("B", [(1, 1), (1, 2), (1, 4)], horizon=2)
    ts = TrajectorySet.build(1, 0, [a, b])
    report = validate(ts)
    assert any(v.code == "stopping-time" for v in report)
    # differing before the shorter horizon is fine
    c = _traj("C", [(1, 1), (1, 5), (1, 6)], horizon=2)
    assert validate(TrajectorySet.build(1, 0, [a, c])) == ()


def test_validate_structure_errors():
    a = _traj("A", [(1, 1), (1, 2)])
    dup = TrajectorySet.build(1, 0, [a, _traj("A", [(1, 1), (1, 3)])])
    assert any(v.code == "duplicate-id" for v in validate(dup))

    bad_h = TrajectorySet.build(1, 0, [Trajectory("A", ((1, 1), (1, 2)), ("0", "1"), 5)])
    assert any(v.code == "horizon" for v in validate(bad_h))

    bad_tags = TrajectorySet.build(1, 0, [Trajectory("A", ((1, 1), (1, 2)), ("0",), 1)])
    assert any(v.code == "tag-count" for v in validate(bad_tags))

    drift = TrajectorySet(1, 0, (1, 1), "0", (
        _traj("A", [(1, 1), (1, 2)]), _traj("B", [(1, 2), (1, 2)])))
    assert any(v.code == "initial-price" for v in validate(drift))

    empty = TrajectorySet(1, 0, (1, 1), "0", ())
    assert any(v.code == "empty-market" for v in validate(empty))

    bad_width = _paths_market([[(1, 1, 1), (1, 2, 1)]])
    assert any(v.code == "price-width" for v in validate(bad_width))


def test_conditioned_set_root_and_subtree():
    ts = _binomial(2)
    root = Node("T0", 0)
    assert conditioned_set(ts, root) == ("T0", "T1", "T2", "T3")
    # stage-1 node splits by the first move
    node = Node("T0", 1)
    members = conditioned_set(ts, node)
    key = node_key(ts, node)
    expected = tuple(t.id for t in ts.trajectories
                     if (t.prices[:2], t.tags[:2]) == key)
    assert members == expected
    assert 0 < len(members) < 4


def test_conditioned_set_unknown_node():
    ts = _binomial(1)
    with pytest.raises(MarketError):
        conditioned_set(ts, Node("nope", 0))
    with pytest.raises(MarketError):
        conditioned_set(ts, Node("T0", 1))  # horizon is 1


def test_tags_split_nodes():
    a = Trajectory("A", ((1, 1), (1, 2), (1, 3)), ("0", "x", "2"), 2)
    b = Trajectory("B", ((1, 1), (1, 2), (1, 1)), ("0", "y", "2"), 2)
    ts = TrajectorySet.build(1, 0, [a, b])
    assert validate(ts) == ()
    assert conditioned_set(ts, Node("A", 1)) == ("A",)
    assert conditioned_set(ts, Node("B", 1)) == ("B",)
    assert len(enumerate_nodes(ts)) == 3
    # equal tags would merge the stage-1 node instead
    c = Trajectory("B", ((1, 1), (1, 2), (1, 1)), ("0", "x", "2"), 2)
    ts2 = TrajectorySet.build(1, 0, [a, c])
    assert conditioned_set(ts2, Node("A", 1)) == ("A", "B")
    assert node_key(ts2, Node("A", 1)) == node_key(ts2, Node("B", 1))


def test_increment_set_constant_trajectory():
    ts = _paths_market([[(1, F(3, 2)), (1, F(3, 2))]])
    inc = increment_set(ts, Node("T0", 0))
    assert inc.points == ((F(0),),)


def test_increment_set_binomial():
    ts = _one_step([1, F(-1, 2)])
    inc = increment_set(ts, Node("T0", 0))
    assert inc.points == ((F(1),), (F(-1, 2),))


def test_increment_set_dedupes():
    ts = _paths_market([[(1, 1), (1, 2)], [(1, 1), (1, 2)], [(1, 1), (1, 3)]])
    inc = increment_set(ts, Node("T0", 0))
    assert inc.points == ((F(1),), (F(2),))


def test_reachable_prices_identity():
    rng = random.Random(11)
    for _ in range(20):
        depth = rng.randint(1, 3)
        paths = []
        for _ in range(rng.randint(1, 5)):
            x = F(1)
            path = [(1, x)]
            for _ in range(depth):
                x += F(rng.randint(-3, 3), rng.randint(1, 3))
                path.append((1, x if x > 0 else F(1, 7)))
            paths.append(path)
        ts = _paths_market(paths)
        if validate(ts):
            continue
        for node in enumerate_nodes(ts):
            here = perspective(
                ts.trajectory(conditioned_set(ts, node)[0]).prices[node.stage], 0)
            via_reach = {vsub(perspective(p, 0), here)
                         for p in reachable_prices(ts, node)}
            assert set(increment_set(ts, node).points) == via_reach


def test_classify_node_arbitrage_free():
    ts = _one_step([1, F(-1, 2)])
    v = classify_node(ts, Node("T0", 0))
    assert v.status == ARBITRAGE_FREE
    assert v.membership.weights == (F(1, 3), F(2, 3))
    inc = increment_set(ts, Node("T0", 0))
    assert check_hull_certificate(inc, (0,), v.membership, require_interior=True)


def test_classify_node_zero_neutral_only():
    ts = _one_step([0, 1])
    v = classify_node(ts, Node("T0", 0))
    assert v.status == ZERO_NEUTRAL_ONLY
    inc = increment_set(ts, Node("T0", 0))
    assert check_hull_certificate(inc, (0,), v.membership)
    assert v.separation.kind == WEAK_ARBITRAGE_WITNESS
    assert check_separation(inc, v.separation)


def test_classify_node_arbitrage():
    ts = _one_step([1, 2])
    v = classify_node(ts, Node("T0", 0))
    assert v.status == ARBITRAGE_NODE
    assert v.membership is None
    assert v.separation.kind == STRICT_SEPARATOR
    assert check_separation(increment_set(ts, Node("T0", 0)), v.separation)


def test_classify_market_three_ways():
    laf = classify_market(_binomial(2))
    assert laf.status == LOCALLY_ARBITRAGE_FREE
    assert laf.locally_arbitrage_free and laf.locally_zero_neutral
    assert laf.arbitrage_nodes == ()
    assert len(laf.nodes) == 3

    monotone = _paths_market([[(1, 1), (1, 2), (1, 3)]])
    up = classify_market(monotone)
    assert up.status == HAS_ARBITRAGE_NODES
    assert len(up.arbitrage_nodes) == 2

    lzn = classify_market(_one_step([0, 1]))
    assert lzn.status == LOCALLY_ZERO_NEUTRAL
    assert not lzn.locally_arbitrage_free and lzn.locally_zero_neutral


def test_classify_market_rejects_invalid():
    ts = _paths_market([[(1, 1), (0, 2)]])
    with pytest.raises(MarketError):
        classify_market(ts)


def test_enumerate_nodes_stage_major():
    ts = _binomial(2)
    nodes = enumerate_nodes(ts)
    assert [n.stage for n in nodes] == sorted(n.stage for n in nodes)
    keys = {node_key(ts, n) for n in nodes}
    assert len(keys) == len(nodes)


def test_nodes_beyond_horizon_ignored():
    # three stored stages but the market stops at 1
    ts = _paths_market([[(1, 1), (1, 2), (1, 3)]])
    t = ts.trajectories[0]
    short = TrajectorySet.build(1, 0, [Trajectory(t.id, t.prices, t.tags, 1)])
    assert [n.stage for n in enumerate_nodes(short)] == [0]


def test_reconstruct_bank_null_and_constant():
    ts = _binomial(2)
    p = null_portfolio(ts, 5)
    for t in ts.trajectories:
        assert reconstruct_bank_component(ts, p, t) == (F(5), F(5), F(5))
    h = (F(2),)
    c = constant_portfolio(ts, h, v0=1)
    for t in ts.trajectories:
        bank = reconstruct_bank_component(ts, c, t)
        x0 = perspective(t.prices[0], 0)
        assert bank[0] == 1 - F(2) * x0[0]
        assert bank[1] == bank[0]
        # liquidation at the horizon turns the position into bank
        assert bank[2] == 1 + terminal_gain(ts, c, t)


def test_gains_examples():
    ts = _paths_market([[(1, 1), (1, 2)]])
    assert gains(ts, null_portfolio(ts), "T0", 1) == 0
    p = restricted_portfolio(ts, Node("T0", 0), (1,))
    assert gains(ts, p, "T0", 1) == 1
    with pytest.raises(MarketError):
        gains(ts, p, "T0", 2)


def test_gains_telescoping_constant_portfolio():
    rng = random.Random(3)
    for _ in range(10):
        depth = rng.randint(1, 4)
        x = F(1)
        path = [(1, x)]
        for _ in range(depth):
            x += F(rng.randint(-2, 4), rng.randint(1, 5))
            x = x if x > 0 else F(1, 9)
            path.append((1, x))
        ts = _paths_market([path])
        h = (F(rng.randint(-3, 3)),)
        p = constant_portfolio(ts, h)
        t = ts.trajectories[0]
        for k in range(depth + 1):
            expect = h[0] * (perspective(t.prices[k], 0)[0]
                             - perspective(t.prices[0], 0)[0])
            assert gains(ts, p, t, k) == expect


def test_value_equals_v0_plus_gains():
    ts = _binomial(2)
    portfolios = [
        null_portfolio(ts, 3),
        constant_portfolio(ts, (F(-2),), v0=F(1, 2)),
        restricted_portfolio(ts, Node("T0", 1), (F(5),), v0=2),
    ]
    for p in portfolios:
        for t in ts.trajectories:
            for k in range(3):
                assert value(ts, p, t, k) == p.v0 + gains(ts, p, t, k)


def test_check_self_financing_node_portfolios():
    ts = _binomial(2)
    assert check_self_financing(ts, null_portfolio(ts))
    a = constant_portfolio(ts, (F(1),), v0=1)
    b = restricted_portfolio(ts, Node("T0", 0), (F(-1),))
    assert check_self_financing(ts, a)
    assert check_self_financing(ts, b)
    s = sum_portfolios(ts, a, b)
    assert check_self_financing(ts, s)
    assert s.v0 == 1
    for t in ts.trajectories:
        for k in range(3):
            assert gains(ts, s, t, k) == gains(ts, a, t, k) + gains(ts, b, t, k)


def test_check_self_financing_rejects_injection():
    ts = _binomial(2)
    p = constant_portfolio(ts, (F(1),), v0=0)
    good = as_explicit(ts, p)
    assert check_self_financing(ts, good)
    bank = {tid: list(b) for tid, b in good.bank.items()}
    for tid in bank:
        bank[tid][1] += 1  # cash appears from nowhere at stage 1
    tampered = ExplicitPortfolio(
        {tid: tuple(b) for tid, b in bank.items()}, good.holdings, good.liquidation)
    assert not check_self_financing(ts, tampered)


def test_check_self_financing_rejects_inconsistent_v0():
    ts = _binomial(1)
    p = null_portfolio(ts, 1)
    good = as_explicit(ts, p)
    bank = {tid: list(b) for tid, b in good.bank.items()}
    bank["T1"] = [x + 1 for x in bank["T1"]]
    tampered = ExplicitPortfolio(bank, good.holdings, good.liquidation)
    assert not check_self_financing(ts, tampered)


def test_portfolio_validation():
    ts = _binomial(2)
    # missing coverage at the root
    p = mkt.Portfolio(0, {}, {t.id: 1 for t in ts.trajectories})
    assert any(v.code == "coverage" for v in validate_portfolio(ts, p))
    with pytest.raises(MarketError):
        gains(ts, p, "T0", 1)
    # nonzero holding at a node some member has already left
    a = _traj("A", [(1, 1), (1, 2), (1, 4)])
    b = _traj("B", [(1, 1), (1, 3), (1, 5)])
    ts2 = TrajectorySet.build(1, 0, [a, b])
    key_b1 = node_key(ts2, Node("B", 1))
    p2 = mkt.Portfolio(
        0,
        {node_key(ts2, Node("A", 0)): (0,), node_key(ts2, Node("A", 1)): (0,),
         key_b1: (1,)},
        {"A": 2, "B": 1})
    assert any(v.code == "liquidated-holding" for v in validate_portfolio(ts2, p2))


def test_restricted_portfolio_mechanics():
    ts = _one_step([1, F(-1, 2)])
    zero = restricted_portfolio(ts, Node("T0", 0), (0,))
    assert all(terminal_gain(ts, zero, t) == 0 for t in ts.trajectories)
    one = restricted_portfolio(ts, Node("T0", 0), (1,))
    assert [terminal_gain(ts, one, t) for t in ts.trajectories] == [1, F(-1, 2)]
    assert one.bound == 1


def test_restricted_portfolio_unconditioned_trajectories():
    # node at stage 1 on one branch; the other branch is unaffected
    ts = _binomial(2)
    node = Node("T0", 1)
    members = set(conditioned_set(ts, node))
    p = restricted_portfolio(ts, node, (F(7),), v0=1)
    for t in ts.trajectories:
        g = terminal_gain(ts, p, t)
        if t.id not in members:
            assert g == 0
        assert value(ts, p, t, 2) == 1 + g


def test_find_arbitrage_monotone():
    ts = _paths_market([[(1, 1), (1, 2), (1, 3)]])
    found = find_arbitrage(ts)
    assert found is not None
    portfolio, proof = found
    assert proof.node == Node("T0", 0)
    assert proof.strict_trajectory == "T0"
    assert all(g >= 0 for _, g in proof.terminal_gains)
    assert any(g > 0 for _, g in proof.terminal_gains)
    assert portfolio.v0 == 0
    assert check_self_financing(ts, portfolio)


def test_find_arbitrage_absent_iff_laf():
    assert find_arbitrage(_binomial(2)) is None


def test_find_arbitrage_uses_zero_neutral_nodes():
    ts = _one_step([0, 1])
    portfolio, proof = find_arbitrage(ts)
    assert proof.witness.kind == WEAK_ARBITRAGE_WITNESS
    gains_by_id = dict(proof.terminal_gains)
    assert gains_by_id["T0"] == 0
    assert gains_by_id["T1"] > 0
    assert proof.strict_trajectory == "T1"
    assert terminal_gain(ts, portfolio, "T1") > 0


def test_find_arbitrage_rejects_invalid():
    with pytest.raises(MarketError):
        find_arbitrage(_paths_market([[(1, 1), (0, 2)]]))


def test_portfolio_audit_null_family():
    ts = _binomial(1)
    report = portfolio_audit(ts, [])
    assert [e.label for e in report.entries] == ["null"]
    assert report.sup_inf == 0
    assert not report.entries[0].is_arbitrage


def test_portfolio_audit_laf_market():
    ts = _binomial(2)
    rng = random.Random(21)
    family = [constant_portfolio(ts, (F(rng.randint(-4, 4)),)) for _ in range(5)]
    family += [restricted_portfolio(ts, n, (F(rng.randint(-4, 4)),))
               for n in enumerate_nodes(ts)]
    report = portfolio_audit(ts, family)
    assert not any(e.is_arbitrage for e in report.entries)
    assert report.sup_inf == 0


def test_portfolio_audit_flags_planted():
    ts = _one_step([1, 2])
    portfolio, _ = find_arbitrage(ts)
    report = portfolio_audit(ts, [portfolio], labels=["win"])
    assert report.entry("win").is_arbitrage
    assert not report.entry("null").is_arbitrage
    assert report.sup_inf == report.entry("win").min_gain > 0


def test_portfolio_audit_rejects_bad_input():
    ts = _binomial(1)
    broken = mkt.Portfolio(0, {}, {t.id: 1 for t in ts.trajectories})
    with pytest.raises(MarketError):
        portfolio_audit(ts, [broken])
    with pytest.raises(MarketError):
        portfolio_audit(ts, [as_explicit(ts, null_portfolio(ts))])


def test_epsilon_witness_null_portfolio():
    ts = _binomial(2)
    tid = epsilon_witness(ts, null_portfolio(ts), F(1, 10**6))
    assert tid == "T0"  # all gains zero, smallest id wins


def test_epsilon_witness_flat_branch():
    ts = _one_step([0, 1])
    p = restricted_portfolio(ts, Node("T0", 0), (1,))
    assert epsilon_witness(ts, p, F(1, 2)) == "T0"
    assert terminal_gain(ts, p, "T0") == 0


def test_epsilon_witness_argmin_nonpositive_on_zero_neutral():
    rng = random.Random(14)
    ts = _binomial(2)
    for _ in range(20):
        h = (F(rng.randint(-5, 5), rng.randint(1, 3)),)
        node = rng.choice(enumerate_nodes(ts))
        p = restricted_portfolio(ts, node, h)
        tid = epsilon_witness(ts, p, F(1, 10**6))
        assert terminal_gain(ts, p, tid) <= 0


def test_epsilon_witness_violation_reported():
    ts = _one_step([1, 2])
    portfolio, _ = find_arbitrage(ts)
    with pytest.raises(MarketError):
        epsilon_witness(ts, portfolio, F(1, 10**9))
    with pytest.raises(MarketError):
        epsilon_witness(ts, null_portfolio(ts), 0)
