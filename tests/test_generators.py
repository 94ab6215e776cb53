from __future__ import annotations

import random
from fractions import Fraction

import pytest

from noarb.generators import (
    ARBITRAGE_FREE_REGIME,
    MAX_TRAJECTORIES,
    PLANT_REGIME,
    ZERO_NEUTRAL_REGIME,
    GeneratorParams,
    expected_status,
    generate_market,
    random_transform,
    trajectory_count_exceeds,
)
from noarb.market import (
    ARBITRAGE_NODE,
    HAS_ARBITRAGE_NODES,
    LOCALLY_ARBITRAGE_FREE,
    LOCALLY_ZERO_NEUTRAL,
    MarketError,
    classify_market,
    find_arbitrage,
    validate,
)
from noarb.symmetry import apply_transform, compose, verify_symmetry_on_market

F = Fraction


def test_params_validation():
    with pytest.raises(MarketError):
        GeneratorParams(0, 2, 1, 1)
    with pytest.raises(MarketError):
        GeneratorParams(2, 2, 1, 1, regime="bogus")
    with pytest.raises(MarketError):
        GeneratorParams(2, 1, 1, 1, regime=ZERO_NEUTRAL_REGIME)
    with pytest.raises(MarketError):
        GeneratorParams(2, 2, 1, 1, low=F(0))
    with pytest.raises(MarketError):
        GeneratorParams(2, 2, 1, 1, low=F(3), high=F(2))
    with pytest.raises(MarketError):
        GeneratorParams(2, 2, 1, 1, regime=PLANT_REGIME, plant_count=99)
    assert GeneratorParams(2, 2, 1, 1).node_count == 3
    assert GeneratorParams(3, 1, 1, 1).node_count == 3


def test_trajectory_count_guard_boundary():
    # 4**8 = 2**16 = 65536 trajectories are allowed, one more stage is not
    assert MAX_TRAJECTORIES == 65536
    assert not trajectory_count_exceeds(8, 4)
    assert not trajectory_count_exceeds(16, 2)
    assert not trajectory_count_exceeds(1, 65536)
    assert trajectory_count_exceeds(9, 4)
    assert trajectory_count_exceeds(17, 2)
    assert trajectory_count_exceeds(1, 65537)
    # a single branch is one trajectory at any depth; a huge depth stops
    # the product as soon as it passes the limit
    assert not trajectory_count_exceeds(10 ** 18, 1)
    assert trajectory_count_exceeds(10 ** 18, 2)
    # parameters are checked without building a market
    assert GeneratorParams(8, 4, 1, 1).node_count == (4 ** 8 - 1) // 3
    with pytest.raises(MarketError, match="depth 9 with branching 4 gives more than 65536"):
        GeneratorParams(9, 4, 1, 1)
    with pytest.raises(MarketError, match="depth 17 with branching 2"):
        GeneratorParams(17, 2, 1, 1, regime=PLANT_REGIME)


def test_seed_determinism():
    p = GeneratorParams(3, 2, 2, seed=7)
    assert generate_market(p) == generate_market(p)
    assert generate_market(p) != generate_market(GeneratorParams(3, 2, 2, seed=8))


def test_generated_markets_are_valid_and_positive():
    for seed in range(10):
        for regime in (ARBITRAGE_FREE_REGIME, ZERO_NEUTRAL_REGIME, PLANT_REGIME):
            ts = generate_market(GeneratorParams(3, 2, 2, seed, regime=regime))
            assert validate(ts) == ()
            for t in ts.trajectories:
                assert t.horizon == 3
                for p in t.prices:
                    assert p[0] == 1
                    assert all(c > 0 for c in p)


def test_arbitrage_free_regime_classifies_clean():
    for seed in range(25):
        params = GeneratorParams(1 + seed % 4, 1 + seed % 3, 1 + seed % 3, seed)
        ts = generate_market(params)
        got = classify_market(ts)
        assert got.status == LOCALLY_ARBITRAGE_FREE == expected_status(params)
        assert find_arbitrage(ts) is None


def test_zero_neutral_regime_classifies_on_the_boundary():
    for seed in range(25):
        params = GeneratorParams(1 + seed % 3, 2 + seed % 2, 1 + seed % 3, seed,
                                 regime=ZERO_NEUTRAL_REGIME)
        ts = generate_market(params)
        got = classify_market(ts)
        assert got.status == LOCALLY_ZERO_NEUTRAL == expected_status(params)
        assert all(v.status != ARBITRAGE_NODE for v in got.verdicts)
        # root is always a flagged node in this regime
        root = [v for n, v in zip(got.nodes, got.verdicts) if n.stage == 0]
        assert len(root) == 1 and root[0].status != "arbitrage_free"


def test_plant_regime_plants_the_requested_count():
    for seed in range(25):
        count = 1 + seed % 3
        params = GeneratorParams(3, 2, 2, seed, regime=PLANT_REGIME,
                                 plant_count=count)
        ts = generate_market(params)
        got = classify_market(ts)
        assert got.status == HAS_ARBITRAGE_NODES == expected_status(params)
        assert len(got.arbitrage_nodes) == count
        proof = find_arbitrage(ts)
        assert proof is not None


def test_single_branch_plant_is_an_arbitrage():
    ts = generate_market(GeneratorParams(2, 1, 1, 5, regime=PLANT_REGIME))
    assert classify_market(ts).status == HAS_ARBITRAGE_NODES


def test_price_bounds_are_respected_at_the_root():
    for seed in range(10):
        params = GeneratorParams(2, 2, 3, seed, low=F(5), high=F(6))
        ts = generate_market(params)
        assert all(F(5) <= c <= F(6) for c in ts.s0[1:])


def test_random_transform_full_rank_and_domain():
    rng = random.Random(31)
    ts = generate_market(GeneratorParams(2, 2, 2, 3))
    for _ in range(15):
        t = random_transform(rng, 2)
        image = apply_transform(t, ts)
        assert validate(image) == ()
        report = verify_symmetry_on_market(t, ts)
        assert report.ok


def test_random_nonneg_transforms_compose_on_positive_markets():
    rng = random.Random(32)
    ts = generate_market(GeneratorParams(2, 2, 2, 4))
    for _ in range(10):
        t1 = random_transform(rng, 2, nonneg=True, dst_numeraire=0)
        t2 = random_transform(rng, 2, nonneg=True)
        chained = compose(t1, t2)
        one_by_one = apply_transform(t2, apply_transform(t1, ts))
        assert apply_transform(chained, ts) == one_by_one
