from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from noarb import io_json
from noarb.cli import main
from noarb.generators import GeneratorParams, generate_market
from noarb.io_json import (
    DocumentError,
    market_from_document,
    market_to_document,
    parse_market,
    parse_parity_spec,
    parse_transform,
    serialize_market,
    serialize_transform,
    transform_from_document,
)
from noarb.market import MarketError, Trajectory, TrajectorySet, classify_market
from noarb.parity import build_parity_market, demo_spec, parity_swap_nas
from noarb.symmetry import FractionalTransform, SampledMultiplier, numeraire_swap

F = Fraction


def _demo_ts():
    return generate_market(GeneratorParams(2, 2, 2, seed=11))


def test_market_round_trip_bit_exact():
    ts = _demo_ts()
    text = serialize_market(ts)
    again = parse_market(text)
    assert again == ts
    assert serialize_market(again) == text
    assert text.endswith("\n")
    assert "\\" not in text and "e-" not in text  # no floats anywhere


def test_market_document_fields():
    doc = market_to_document(_demo_ts())
    assert doc["schema_version"] == "1"
    assert doc["dim"] == 2 and doc["numeraire"] == 0
    assert all(isinstance(c, str) for c in doc["s0"])
    assert doc["trajectories"][0]["horizon"] == 2


def test_market_parse_rejections():
    ts = _demo_ts()
    good = market_to_document(ts)
    with pytest.raises(DocumentError):
        parse_market("{not json")
    with pytest.raises(DocumentError):
        parse_market("[1, 2]")
    for mutate in (
        lambda d: d.pop("schema_version"),
        lambda d: d.update(schema_version="2"),
        lambda d: d.update(dim="2"),
        lambda d: d.update(s0=["1", "0.5", "2"]),
        lambda d: d.update(s0=["1", " 1/2", "2"]),
        lambda d: d["trajectories"][0].pop("id"),
        lambda d: d["trajectories"][0].update(tags=[0, 1, 2]),
        lambda d: d.update(trajectories=[]),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(DocumentError):
            market_from_document(doc)


def test_transform_round_trip():
    for t in (numeraire_swap(2, 0, 1),
              parity_swap_nas()):
        text = serialize_transform(t)
        assert parse_transform(text) == t
        assert serialize_transform(parse_transform(text)) == text


def test_transform_sampled_multiplier_round_trip():
    t = numeraire_swap(1, 0, 1)
    sampled = type(t)(t.L, 0, 0, SampledMultiplier((((F(1), F(2)), F(3, 2)),)))
    text = serialize_transform(sampled)
    again = parse_transform(text)
    assert again.multiplier.samples == sampled.multiplier.samples
    with pytest.raises(DocumentError):
        parse_transform(json.dumps(
            {"schema_version": "1", "L": [["1", "0"], ["0", "1"]],
             "src_numeraire": 0, "dst_numeraire": 0, "multiplier": "exotic"}))
    with pytest.raises(DocumentError):
        parse_transform(json.dumps(
            {"schema_version": "1", "L": [["1", "0"]],
             "src_numeraire": 0, "dst_numeraire": 0}))


def test_parity_spec_round_trip():
    spec = demo_spec()
    doc = io_json.parity_spec_to_document(spec, perturb=(0, F(1, 100)))
    parsed, perturb = io_json.parity_spec_from_document(doc)
    assert parsed == spec
    assert perturb == (0, F(1, 100))
    weighted = io_json.parity_spec_to_document(
        type(spec)(F(1), (F(2), F(1, 2)), (0, 1), {(): (F(1, 3), F(2, 3))}))
    parsed2, _ = io_json.parity_spec_from_document(weighted)
    assert parsed2.node_weights(()) == (F(1, 3), F(2, 3))


def test_node_reports_revalidate():
    ts = _demo_ts()
    cls = classify_market(ts)
    doc = io_json.classification_report(ts, cls)
    assert doc["status"] == "locally_arbitrage_free"
    for node in doc["nodes"]:
        assert node["status"] == "arbitrage_free"
        assert node["membership"] is not None
        assert len(node["membership"]["weights"]) == len(node["increments"])


def _run_cli(args):
    return main(list(args))


def test_cli_check_exit_codes(tmp_path, capsys):
    ts = _demo_ts()
    path = tmp_path / "m.json"
    path.write_text(serialize_market(ts))
    assert _run_cli(["check", str(path), "--local-arbitrage-free"]) == 0
    assert _run_cli(["check", str(path), "--local-zero-neutral"]) == 0
    assert _run_cli(["check", str(path), "--find-arbitrage"]) == 0

    bad = generate_market(GeneratorParams(2, 2, 2, 3, regime="plant-arbitrage"))
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(serialize_market(bad))
    report = tmp_path / "report.json"
    assert _run_cli(["check", str(bad_path), "--local-arbitrage-free"]) == 1
    assert _run_cli(["check", str(bad_path), "--find-arbitrage",
                     "--report", str(report)]) == 1
    capsys.readouterr()
    doc = json.loads(report.read_text())
    assert doc["holds"] is False
    assert doc["arbitrage"]["strict_trajectory"]
    assert all(isinstance(doc["elapsed_seconds"], float) or
               isinstance(doc["elapsed_seconds"], int) for _ in [0])

    zn = generate_market(GeneratorParams(2, 2, 1, 5, regime="zero-neutral-only"))
    zn_path = tmp_path / "zn.json"
    zn_path.write_text(serialize_market(zn))
    assert _run_cli(["check", str(zn_path), "--local-arbitrage-free"]) == 1
    assert _run_cli(["check", str(zn_path), "--local-zero-neutral"]) == 0
    assert _run_cli(["check", str(zn_path), "--find-arbitrage"]) == 1


def test_cli_bad_input_exit_code(tmp_path, capsys):
    missing = tmp_path / "none.json"
    assert _run_cli(["check", str(missing), "--local-arbitrage-free"]) == 2
    truncated = tmp_path / "trunc.json"
    truncated.write_text(serialize_market(_demo_ts())[:40])
    assert _run_cli(["check", str(truncated), "--local-arbitrage-free"]) == 2
    # structurally fine JSON that fails market validation
    doc = market_to_document(_demo_ts())
    doc["numeraire"] = 7
    bad = tmp_path / "badnum.json"
    bad.write_text(json.dumps(doc))
    assert _run_cli(["check", str(bad), "--local-arbitrage-free"]) == 2
    capsys.readouterr()


def test_cli_transform_round_trip(tmp_path, capsys):
    ts = _demo_ts()
    m = tmp_path / "m.json"
    m.write_text(serialize_market(ts))
    t = tmp_path / "t.json"
    t.write_text(serialize_transform(numeraire_swap(2, 0, 1)))
    out = tmp_path / "image.json"
    assert _run_cli(["transform", str(m), "--transform", str(t),
                     "--output", str(out), "--verify"]) == 0
    image = parse_market(out.read_text())
    assert image.numeraire == 0
    # swapping twice returns the original document bit for bit
    out2 = tmp_path / "back.json"
    assert _run_cli(["transform", str(out), "--transform", str(t),
                     "--output", str(out2)]) == 0
    assert out2.read_text() == m.read_text()
    capsys.readouterr()


def test_cli_transform_domain_violation(tmp_path, capsys):
    ts = TrajectorySet.build(1, 0, [
        Trajectory("A", ((F(1), F(1)), (F(1), F(5))), ("0", "1"), 1)])
    m = tmp_path / "m.json"
    m.write_text(serialize_market(ts))
    t = tmp_path / "t.json"
    t.write_text(serialize_transform(
        type(numeraire_swap(1, 0, 1))((("1", "0"), ("2", "-1")), 0, 1)))
    assert _run_cli(["transform", str(m), "--transform", str(t)]) == 1
    assert "stage 1" in capsys.readouterr().out


def test_cli_transform_rank_warning(tmp_path, capsys):
    ts = _demo_ts()
    m = tmp_path / "m.json"
    m.write_text(serialize_market(ts))
    t = tmp_path / "t.json"
    t.write_text(serialize_transform(type(numeraire_swap(2, 0, 1))(
        (("1", "1", "0"), ("2", "2", "0"), ("0", "0", "1")), 0, 2)))
    report = tmp_path / "r.json"
    assert _run_cli(["transform", str(m), "--transform", str(t),
                     "--report", str(report)]) == 0
    assert "warning" in capsys.readouterr().out
    assert json.loads(report.read_text())["rank_warning"] is True


def test_cli_transform_rank_warning_tracks_width(tmp_path, capsys):
    deficient = {1: ((1, 0), (2, 0)),
                 2: ((1, 0, 0), (0, 1, 0), (1, 1, 0)),
                 3: ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0))}
    for dim, rows in deficient.items():
        m = tmp_path / f"m{dim}.json"
        m.write_text(serialize_market(generate_market(GeneratorParams(2, 2, dim, seed=dim))))
        for name, t, warns in (
                ("swap", numeraire_swap(dim, 0, 1), False),
                ("deficient", FractionalTransform(rows, 0, 0), True)):
            path = tmp_path / f"{name}{dim}.json"
            path.write_text(serialize_transform(t))
            report = tmp_path / "r.json"
            assert _run_cli(["transform", str(m), "--transform", str(path),
                             "--report", str(report)]) == 0
            assert ("warning" in capsys.readouterr().out) is warns
            doc = json.loads(report.read_text())
            assert doc["image_rank"] == dim + 1 - warns
            assert doc["rank_warning"] is warns


def test_cli_rational_past_digit_limit_is_bad_input(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(serialize_market(generate_market(GeneratorParams(4, 3, 2, seed=1))))
    t = tmp_path / "t.json"
    t.write_text(serialize_transform(FractionalTransform(
        ((9 * 10**4299, 0, 0), (0, 1, 0), (0, 0, 1)), 0, 0)))
    image = tmp_path / "image.json"
    assert _run_cli(["transform", str(m), "--transform", str(t),
                     "--output", str(image)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the market document")
    assert str(image) in err and "digits" in err
    assert not image.exists()

    # 4300-digit prices parse, but their increments need twice the digits
    q, s = 10**4299 + 1, 10**4299 + 3
    big = tmp_path / "big.json"
    big.write_text(serialize_market(TrajectorySet.build(1, 0, [
        Trajectory("up", ((q, 1), (s, 2)), ("0", "1"), 1),
        Trajectory("dn", ((q, 1), (s, 0)), ("0", "1"), 1)])))
    report = tmp_path / "r.json"
    assert _run_cli(["check", str(big), "--local-arbitrage-free",
                     "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write the report {report}")
    assert not report.exists()


def test_cli_parity_demo(tmp_path, capsys):
    report = tmp_path / "parity.json"
    assert _run_cli(["parity", "--demo", "--report", str(report)]) == 0
    text = capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["holds"] is True
    assert doc["parity_factor"] == "-1"
    assert doc["transformed_root"] == ["1/5", "2/5", "4/5", "1"]
    assert doc["transformed_boundary_ok"] is True
    assert doc["market_document"]["s0"] == ["1/2", "1/4", "5/4", "1"]
    assert "parity holds: True" in text


def test_cli_parity_spec_and_perturbation(tmp_path, capsys):
    spec = demo_spec()
    clean = tmp_path / "spec.json"
    clean.write_text(io_json.serialize_document(
        io_json.parity_spec_to_document(spec)))
    assert _run_cli(["parity", str(clean)]) == 0

    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(io_json.serialize_document(
        io_json.parity_spec_to_document(spec, perturb=(0, F(1, 100)))))
    assert _run_cli(["parity", str(perturbed)]) == 1

    single = tmp_path / "single.json"
    single.write_text(io_json.serialize_document(
        io_json.parity_spec_to_document(
            type(spec)(F(2), (F(2),), (0, 1)))))
    assert _run_cli(["parity", str(single)]) == 0
    assert _run_cli(["parity"]) == 2
    capsys.readouterr()


def test_cli_generate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--depth", "3", "--branching", "2", "--dim", "2",
            "--seed", "1"]
    assert _run_cli(args + ["--output", str(a)]) == 0
    assert _run_cli(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ts = parse_market(a.read_text())
    assert classify_market(ts).status == "locally_arbitrage_free"
    assert _run_cli(["generate", "--depth", "0", "--branching", "2",
                     "--dim", "1", "--seed", "1"]) == 2
    capsys.readouterr()


def test_cli_generate_size_guard(capsys):
    start = time.perf_counter()
    assert _run_cli(["generate", "--depth", "1000000000", "--branching", "4",
                     "--dim", "1", "--seed", "1"]) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert "depth 1000000000 with branching 4 gives more than 65536 trajectories" in err


def test_cli_generate_regimes(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert _run_cli(["generate", "--depth", "2", "--branching", "2", "--dim",
                     "1", "--seed", "9", "--regime", "plant-arbitrage",
                     "--plant-count", "2", "--output", str(out)]) == 0
    ts = parse_market(out.read_text())
    cls = classify_market(ts)
    assert cls.status == "has_arbitrage_nodes"
    assert len(cls.arbitrage_nodes) == 2
    capsys.readouterr()


def test_cli_subprocess_entry(tmp_path):
    m = tmp_path / "m.json"
    m.write_text(serialize_market(_demo_ts()))
    run = subprocess.run(
        [sys.executable, "-m", "noarb.cli", "check", str(m),
         "--local-arbitrage-free"],
        capture_output=True, text=True)
    assert run.returncode == 0
    assert "market status: locally_arbitrage_free" in run.stdout
    run = subprocess.run(
        [sys.executable, "-m", "noarb.cli", "check", str(m)],
        capture_output=True, text=True)
    assert run.returncode == 2


def test_report_text_mentions_arbitrage(tmp_path, capsys):
    bad = generate_market(GeneratorParams(2, 2, 1, 13, regime="plant-arbitrage"))
    path = tmp_path / "m.json"
    path.write_text(serialize_market(bad))
    assert _run_cli(["check", str(path), "--find-arbitrage"]) == 1
    text = capsys.readouterr().out
    assert "arbitrage at (" in text
