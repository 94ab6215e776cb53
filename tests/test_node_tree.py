"""The node tree against definitions walked trajectory by trajectory.

`validate`'s stopping-time check is compared with the pairwise definition,
and the per-node self-financing check, audit gains and epsilon witnesses
with a stage-by-stage walk of every trajectory (`tests/oracles.py`), on
hand-built and seeded random markets, for holding and failing outcomes.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from noarb.generators import GeneratorParams, generate_market
from noarb.market import (
    ExplicitPortfolio,
    MarketError,
    Node,
    Portfolio,
    Trajectory,
    TrajectorySet,
    as_explicit,
    check_self_financing,
    conditioned_set,
    constant_portfolio,
    enumerate_nodes,
    epsilon_witness,
    node_key,
    portfolio_audit,
    restricted_portfolio,
    sum_portfolios,
    terminal_gain,
    validate,
)

from oracles import (
    self_financing_by_trajectory,
    stopping_time_violations,
    terminal_gains_by_trajectory,
)

F = Fraction


def _t(tid, xs, horizon, tags=None):
    prices = tuple((1, F(x)) for x in xs)
    if tags is None:
        tags = tuple(str(k) for k in range(len(xs)))
    return Trajectory(tid, prices, tuple(tags), horizon)


def _report(ts):
    return [(v.code, v.trajectory_id, v.stage, v.message) for v in validate(ts)]


def test_validate_matches_pairwise_on_hand_built_clashes():
    markets = [
        # equal prefixes with different horizons, several pairs
        [_t("A", [1, 2, 3, 4], 1), _t("B", [1, 2, 3, 5], 2),
         _t("C", [1, 2, 4, 4], 3), _t("D", [1, 3, 3, 3], 2),
         _t("E", [1, 2, 3, 5], 3)],
        # tags split a stage-1 node: X and Y share prices but not tags, so
        # only X clashes with Z and W
        [_t("X", [1, 2, 3], 1, ("0", "a", "2")),
         _t("Y", [1, 2, 3], 2, ("0", "b", "2")),
         _t("Z", [1, 2, 5], 2, ("0", "a", "2")),
         _t("W", [1, 2, 3], 2, ("0", "a", "x"))],
        # stages stored past the horizon do not separate trajectories that
        # agree through the shorter horizon
        [_t("P", [1, 2, 7, 8, 9], 1), _t("Q", [1, 2, 6, 1, 1], 4),
         _t("R", [1, 2, 6, 2], 3), _t("S", [1, 5, 6, 2], 3)],
        # the longer-lived trajectory comes first in input order
        [_t("L", [1, 2, 3], 2), _t("M", [1, 2, 4], 1), _t("N", [1, 2, 3], 1)],
    ]
    for trajectories in markets:
        ts = TrajectorySet.build(1, 0, trajectories)
        want = stopping_time_violations(ts.trajectories)
        assert len(want) >= 2
        assert _report(ts) == want


def _random_market(rng, clean: bool):
    """A random tree with tag splits, repeated prices and extra stored stages.

    Every trajectory stores the full depth. With clean set, horizons come
    from a stopping rule decided at the nodes, so the market is valid;
    otherwise each trajectory draws its own horizon.
    """
    depth = rng.randint(1, 4)
    dim = rng.randint(1, 2)
    trajectories = []

    def grow(prices, tags, horizon):
        k = len(prices) - 1
        if horizon is None and k >= 1 and (k == depth or rng.random() < 0.3):
            horizon = k
        if k == depth:
            h = horizon if clean else rng.randint(1, depth)
            trajectories.append(Trajectory(f"T{len(trajectories)}", tuple(prices),
                                           tuple(tags), h))
            return
        steps = set()
        for _ in range(rng.randint(1, 3)):
            step = ((F(1),) + tuple(F(rng.randint(1, 3), rng.randint(1, 2))
                                    for _ in range(dim)), rng.choice("ab"))
            if step not in steps:
                steps.add(step)
                grow(prices + [step[0]], tags + [step[1]], horizon)

    grow([(F(1),) * (dim + 1)], ["0"], None)
    rng.shuffle(trajectories)
    return TrajectorySet.build(dim, 0, trajectories)


def test_validate_matches_pairwise_on_random_markets():
    rng = random.Random(404)
    dirty = 0
    for _ in range(150):
        clean = rng.random() < 0.3
        ts = _random_market(rng, clean)
        want = stopping_time_violations(ts.trajectories)
        assert _report(ts) == want
        if clean:
            assert want == []
        dirty += bool(want)
    assert dirty > 30


def test_tree_lookups_match_prefix_definition():
    # lookups are defined on markets that break the stopping-time property
    # too, where a class holds trajectories that stopped before its stage
    rng = random.Random(5)
    for i in range(60):
        ts = _random_market(rng, clean=i % 2 == 0)
        nodes = enumerate_nodes(ts)
        for node in nodes:
            t = ts.trajectory(node.trajectory_id)
            k = node.stage
            key = (t.prices[:k + 1], t.tags[:k + 1])
            assert node_key(ts, node) == key
            assert conditioned_set(ts, node) == tuple(
                s.id for s in ts.trajectories
                if (s.prices[:k + 1], s.tags[:k + 1]) == key and s.horizon > k)
        want = []
        for k in range(max(t.horizon for t in ts.trajectories)):
            seen = set()
            for t in ts.trajectories:
                key = (t.prices[:k + 1], t.tags[:k + 1])
                if t.horizon > k and key not in seen:
                    seen.add(key)
                    want.append(Node(t.id, k))
        assert list(nodes) == want


def _stopping_liquidation(ts, rng):
    # a liquidation stage per stage-1 prefix, below or at the horizon
    by_prefix = {}
    out = {}
    for t in ts.trajectories:
        key = (t.prices[:2], t.tags[:2])
        n = by_prefix.setdefault(key, rng.randint(1, t.horizon))
        out[t.id] = min(n, t.horizon)
    return out


def _small_vec(rng, dim):
    return tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))


def _family(ts, rng):
    """(label, portfolio) for holding and failing cases."""
    nodes = enumerate_nodes(ts)
    dim = ts.dim
    const = constant_portfolio(ts, _small_vec(rng, dim), v0=rng.randint(-2, 2))
    node = rng.choice(nodes)
    restr = restricted_portfolio(ts, node, _small_vec(rng, dim), v0=1)
    out = [("constant", const), ("restricted", restr),
           ("sum", sum_portfolios(ts, const, restr))]

    # liquidation per stage-1 prefix, nonzero holdings only before it
    liq = _stopping_liquidation(ts, rng)
    holdings = {}
    for t in ts.trajectories:
        for k in range(liq[t.id]):
            holdings.setdefault((t.prices[:k + 1], t.tags[:k + 1]), _small_vec(rng, dim))
    out.append(("early-stop", Portfolio(0, holdings, liq)))

    # corruptions: a missing node, per-trajectory stops that leave nonzero
    # holdings behind, a missing liquidation stage
    missing = dict(const.holdings)
    missing.pop(node_key(ts, rng.choice(nodes)))
    out.append(("missing", Portfolio(0, missing, const.liquidation)))
    ragged = {t.id: rng.randint(0, t.horizon) for t in ts.trajectories}
    out.append(("ragged", Portfolio(0, const.holdings, ragged)))
    out.append(("no-stop", Portfolio(0, const.holdings, dict(list(ragged.items())[1:]))))
    return out


def _explicit_family(ts, rng, p):
    good = as_explicit(ts, p)
    out = [("explicit", good)]
    tid = rng.choice(ts.trajectories).id
    bank = dict(good.bank)
    bank[tid] = tuple(b + 1 for b in bank[tid])  # another initial value
    out.append(("explicit-v0", ExplicitPortfolio(bank, good.holdings, good.liquidation)))
    bank = dict(good.bank)
    b = list(bank[tid])
    b[-1] += F(1, 7)  # cash from nowhere at the last stage
    bank[tid] = tuple(b)
    out.append(("explicit-cash", ExplicitPortfolio(bank, good.holdings, good.liquidation)))
    return out


def _markets(rng):
    for _ in range(25):
        yield _random_market(rng, clean=True)
    for regime in ("arbitrage-free", "zero-neutral-only", "plant-arbitrage"):
        yield generate_market(GeneratorParams(3, 3, 2, rng.randrange(1000), regime))


def test_per_node_walks_match_per_trajectory_reference():
    rng = random.Random(2718)
    outcomes = {True: 0, False: 0}
    for ts in _markets(rng):
        family = _family(ts, rng)
        family += _explicit_family(ts, rng, family[2][1])
        for label, p in family:
            want = self_financing_by_trajectory(ts, p)
            assert check_self_financing(ts, p) == want, label
            outcomes[want] += 1
            if want and isinstance(p, Portfolio):
                gains = terminal_gains_by_trajectory(ts, p)
                assert [(t.id, terminal_gain(ts, p, t)) for t in ts.trajectories] == gains
        valid = [p for _, p in family if isinstance(p, Portfolio)
                 and self_financing_by_trajectory(ts, p)]
        report = portfolio_audit(ts, valid)
        for entry, p in zip(report.entries[1:], valid):
            gains = terminal_gains_by_trajectory(ts, p)
            min_id, min_gain = min(gains, key=lambda e: (e[1], e[0]))
            max_gain = max(g for _, g in gains)
            assert (entry.min_gain, entry.max_gain, entry.argmin_trajectory,
                    entry.is_arbitrage) == (min_gain, max_gain, min_id,
                                            min_gain >= 0 and max_gain > 0)
            assert epsilon_witness(ts, p, max(min_gain, 0) + F(1, 1000)) == min_id
            if min_gain > 0:
                with pytest.raises(MarketError):
                    epsilon_witness(ts, p, min_gain)
    assert outcomes[True] > 50 and outcomes[False] > 50
