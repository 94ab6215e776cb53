"""One certified LP route per node, and one verdict per node per market.

`classify_node` is compared with the two-route reference classifier
(`tests/oracles.py`) certificate for certificate; LP solves are counted per
verdict, repeat callers are shown to reuse the market's verdict store, and a
tampered certificate is shown to be refused.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from noarb import cli, io_json, simplex
from noarb import market as mkt
from noarb import symmetry
from noarb.cli import main
from noarb.generators import REGIMES, GeneratorParams, generate_market
from noarb.geometry import HullCertificate, SeparationCertificate
from noarb.market import (
    ARBITRAGE_FREE,
    ARBITRAGE_NODE,
    ZERO_NEUTRAL_ONLY,
    MarketError,
    Node,
    Trajectory,
    TrajectorySet,
    classify_market,
    classify_node,
    enumerate_nodes,
    find_arbitrage,
)
from noarb.parity import build_parity_market, demo_spec, parity_swap_nas, verify_parity
from noarb.symmetry import (
    FractionalTransform,
    apply_transform,
    identity_transform,
    numeraire_swap,
    verify_symmetry_on_market,
)

from oracles import two_route_classify_node

F = Fraction

LPS_PER_VERDICT = {ARBITRAGE_FREE: 1, ZERO_NEUTRAL_ONLY: 3, ARBITRAGE_NODE: 3}


def _seeded_markets():
    for regime in REGIMES:
        for dim in (1, 2, 3):
            for branching in (2, 3):
                for seed in (1, 2):
                    yield generate_market(GeneratorParams(2, branching, dim, seed, regime))


def _one_step(children):
    """Root (1, 1) with one stage-1 child per (price point, tag)."""
    return TrajectorySet.build(1, 0, [
        Trajectory(f"T{i}", ((F(1), F(1)), tuple(F(c) for c in p)), ("0", tag), 1)
        for i, (p, tag) in enumerate(children)])


HAND_BUILT = {
    # one successor: a singleton increment set
    "singleton-up": ([((1, 2), "a")], ARBITRAGE_NODE),
    "singleton-zero": ([((1, 1), "a")], ARBITRAGE_FREE),
    # (1, 2) and (2, 4) are one relative price: duplicate increments, and
    # duplicate points on the reachable-price route
    "duplicate-increment": ([((1, 2), "a"), ((2, 4), "b"), ((1, F(1, 2)), "c")],
                            ARBITRAGE_FREE),
    "duplicate-only": ([((1, 2), "a"), ((2, 4), "b")], ARBITRAGE_NODE),
    # equal prices under different tags are different children
    "same-price-tags": ([((1, 3), "a"), ((1, 3), "b")], ARBITRAGE_NODE),
    # (2, 2) keeps the relative price: a zero increment
    "zero-increment": ([((2, 2), "a"), ((1, 3), "b")], ZERO_NEUTRAL_ONLY),
    "zero-increment-interior": ([((2, 2), "a"), ((1, 3), "b"), ((1, F(1, 3)), "c")],
                                ARBITRAGE_FREE),
}


def test_classify_node_matches_two_route_reference():
    seen = set()
    for ts in _seeded_markets():
        for node in enumerate_nodes(ts):
            got = classify_node(ts, node)
            want = two_route_classify_node(ts, node)
            assert got == want
            assert repr(got) == repr(want)
            seen.add(got.status)
    assert seen == set(LPS_PER_VERDICT)


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_classify_node_matches_two_route_reference_hand_built(name):
    children, status = HAND_BUILT[name]
    ts = _one_step(children)
    got = classify_node(ts, Node("T0", 0))
    assert got.status == status
    assert got == two_route_classify_node(ts, Node("T0", 0))


def _count_solves(monkeypatch):
    count = [0]
    solve = simplex.solve

    def counted(*args):
        count[0] += 1
        return solve(*args)

    monkeypatch.setattr(simplex, "solve", counted)
    return count


def test_lp_solves_per_verdict(monkeypatch):
    count = _count_solves(monkeypatch)
    seen = set()
    for ts in _seeded_markets():
        for node in enumerate_nodes(ts):
            before = count[0]
            verdict = classify_node(ts, node)
            assert count[0] - before == LPS_PER_VERDICT[verdict.status]
            seen.add(verdict.status)
    for children, status in HAND_BUILT.values():
        before = count[0]
        assert classify_node(_one_step(children), Node("T0", 0)).status == status
        assert count[0] - before == LPS_PER_VERDICT[status]
    assert seen == set(LPS_PER_VERDICT)


def test_find_arbitrage_reuses_classify_market_verdicts(monkeypatch):
    count = _count_solves(monkeypatch)
    for ts in _seeded_markets():
        cls = classify_market(ts)
        assert count[0] == sum(LPS_PER_VERDICT[v.status] for v in cls.verdicts)
        solved = count[0]
        found = find_arbitrage(ts)
        assert (found is None) == cls.locally_arbitrage_free
        assert classify_market(ts) == cls
        assert count[0] == solved
        count[0] = 0


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_symmetry_and_parity_share_the_verdict_store(monkeypatch):
    ts = generate_market(GeneratorParams(2, 3, 2, 4, "zero-neutral-only"))
    calls = _count_calls(monkeypatch, mkt, "classify_node")
    cls = classify_market(ts)
    report = verify_symmetry_on_market(identity_transform(2), ts)
    # the image is a new market: only its nodes are classified
    assert [a[0] for a in calls] == [ts] * len(cls.nodes) + [report.transformed] * len(cls.nodes)
    assert tuple(c.before for c in report.comparisons) == cls.verdicts

    calls.clear()
    pm = build_parity_market(demo_spec())
    parity = verify_parity(pm)
    nodes = len(parity.node_verdicts)
    sym = verify_symmetry_on_market(parity_swap_nas(), pm)
    assert [a[0] for a in calls] == [pm] * nodes + [sym.transformed] * nodes
    assert classify_market(pm).verdicts == tuple(v for _, v in parity.node_verdicts)
    assert len(calls) == 2 * nodes


def _tampered_weights(cert):
    w = list(cert.weights)
    w[0], w[-1] = w[0] + F(1, 97), w[-1] - F(1, 97)
    return HullCertificate(cert.indices, tuple(w))


def test_tampered_membership_certificate_is_refused(monkeypatch):
    ts = _one_step(HAND_BUILT["duplicate-increment"][0])
    ri = mkt.relative_interior_membership
    monkeypatch.setattr(mkt, "relative_interior_membership",
                        lambda E, x: _tampered_weights(ri(E, x)))
    with pytest.raises(MarketError, match="certificate check"):
        classify_node(ts, Node("T0", 0))


def test_tampered_hull_and_separation_certificates_are_refused(monkeypatch):
    zn = _one_step(HAND_BUILT["zero-increment"][0])
    arb = _one_step(HAND_BUILT["singleton-up"][0])
    neutral = mkt.is_zero_neutral_set
    disperse = mkt.is_disperse

    def flipped(cert):
        return SeparationCertificate(tuple(-c for c in cert.h), cert.kind)

    def bad_hull(E):
        # equal weights on every point: sums to one, but lands on the mean
        n = len(E.points)
        return type(neutral(E))(True, HullCertificate(range(n), (F(1, n),) * n), None)

    def bad_separator(E):
        v = neutral(E)
        return v if v.separator is None else type(v)(False, None, flipped(v.separator))

    def bad_witness(E):
        v = disperse(E)
        return type(v)(v.disperse, flipped(v.witness))

    for ts, name, fake in ((zn, "is_zero_neutral_set", bad_hull),
                           (arb, "is_zero_neutral_set", bad_separator),
                           (zn, "is_disperse", bad_witness)):
        with monkeypatch.context() as m:
            m.setattr(mkt, name, fake)
            with pytest.raises(MarketError, match="certificate check"):
                classify_node(ts, Node("T0", 0))
        assert classify_node(ts, Node("T0", 0)).status in (ZERO_NEUTRAL_ONLY, ARBITRAGE_NODE)


def test_cli_find_arbitrage_classifies_and_validates_once(tmp_path, monkeypatch, capsys):
    ts = generate_market(GeneratorParams(3, 3, 2, 1, "plant-arbitrage"))
    path = tmp_path / "m.json"
    path.write_text(io_json.serialize_market(ts))
    validated = _count_calls(monkeypatch, mkt, "validate")
    classified = _count_calls(monkeypatch, mkt, "classify_node")
    count = _count_solves(monkeypatch)
    after = []
    classify = cli.classify_market

    def classify_then_mark(market):
        out = classify(market)
        after.append(count[0])
        return out

    monkeypatch.setattr(cli, "classify_market", classify_then_mark)
    assert main(["check", str(path), "--find-arbitrage"]) == 1
    capsys.readouterr()
    assert after == [count[0]]
    assert len(validated) == 1
    assert len(classified) == len(enumerate_nodes(ts))


def test_cli_transform_verify_applies_the_transform_once(tmp_path, monkeypatch, capsys):
    ts = generate_market(GeneratorParams(3, 3, 2, 2))
    m = tmp_path / "m.json"
    m.write_text(io_json.serialize_market(ts))
    t = tmp_path / "t.json"
    swap = numeraire_swap(2, 0, 1)
    t.write_text(io_json.serialize_transform(swap))
    plain = tmp_path / "plain.json"
    assert main(["transform", str(m), "--transform", str(t), "--output", str(plain)]) == 0

    points = _count_calls(monkeypatch, symmetry, "apply_point")
    verified = tmp_path / "verified.json"
    assert main(["transform", str(m), "--transform", str(t), "--output", str(verified),
                 "--verify"]) == 0
    capsys.readouterr()
    assert len(points) == sum(len(tr.prices) for tr in ts.trajectories)
    assert verified.read_bytes() == plain.read_bytes()
    assert verified.read_text() == io_json.serialize_market(apply_transform(swap, ts))


def test_cli_transform_verify_domain_violation_fails(tmp_path, capsys):
    ts = TrajectorySet.build(1, 0, [
        Trajectory("A", ((F(1), F(1)), (F(1), F(5))), ("0", "1"), 1)])
    m = tmp_path / "m.json"
    m.write_text(io_json.serialize_market(ts))
    t = tmp_path / "t.json"
    t.write_text(io_json.serialize_transform(
        FractionalTransform((("1", "0"), ("2", "-1")), 0, 1)))
    out = tmp_path / "image.json"
    assert main(["transform", str(m), "--transform", str(t), "--output", str(out),
                 "--verify"]) == 1
    assert capsys.readouterr().out.startswith("transform failed:")
    assert not out.exists()
