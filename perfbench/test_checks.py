"""The benchmark's output checks must reject corrupted outputs.

    python3 -m pytest perfbench/test_checks.py -q

Each test takes a correct output, passes it through the check, corrupts
one thing (a weight, a separator's sign, an exit code, a gain, a flag) and
expects the check to name a problem.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import AF, ARB, STRICT, WEAK, ZN, Market, Traj  # noqa: E402
from noarb.generators import GeneratorParams, generate_market  # noqa: E402

ONE = F(1)


def one_step(*finals, dim=1) -> Market:
    """A one-period market from (1, 1, ...) to each final relative price."""
    start = (ONE,) * (dim + 1)
    trajs = tuple(Traj(f"t{i}", (start, (ONE,) + tuple(F(c) for c in x)), ("0", "1"), 1)
                  for i, x in enumerate(finals))
    return Market(dim, 0, trajs)


def test_membership_certificate_with_tampered_weight_is_rejected():
    m = one_step((2,), (F(1, 2),))  # increments +1 and -1/2
    inc = checks.market_nodes(m)[0].increments
    good = ((0, 1), (F(1, 3), F(2, 3)))
    assert checks.verdict_problems(inc, AF, good, None) == []
    tampered = ((0, 1), (F(1, 3) + F(1, 100), F(2, 3) - F(1, 100)))
    assert checks.verdict_problems(inc, AF, tampered, None)
    assert checks.verdict_problems(inc, AF, ((0, 1), (F(1, 2), F(1, 3))), None)
    assert checks.verdict_problems(inc, AF, ((0, 1), (ONE, F(0))), None)


def test_flipped_separator_sign_is_rejected():
    m = one_step((2, 3), (3, 2), dim=2)  # every increment strictly positive
    inc = checks.market_nodes(m)[0].increments
    assert checks.verdict_problems(inc, ARB, None, (STRICT, (ONE, ONE))) == []
    assert checks.verdict_problems(inc, ARB, None, (STRICT, (-ONE, -ONE)))
    zn = checks.market_nodes(one_step((1, 1), (2, 1), dim=2))[0].increments
    weak = (WEAK, (ONE, F(0)))
    assert checks.verdict_problems(zn, ZN, ((0,), (ONE,)), weak) == []
    assert checks.verdict_problems(zn, ZN, ((0,), (ONE,)), (WEAK, (-ONE, F(0))))


def test_wrong_status_and_wrong_regime_are_rejected():
    m = one_step((2,), (F(1, 2),))
    nodes = checks.market_nodes(m)
    verdicts = [("t0", 0, AF, ((0, 1), (F(1, 3), F(2, 3))), None)]
    assert checks.classification_problems(nodes, "arbitrage-free",
                                          "locally_arbitrage_free", verdicts) == []
    assert checks.classification_problems(nodes, "plant-arbitrage",
                                          "locally_arbitrage_free", verdicts)
    assert checks.classification_problems(nodes, "arbitrage-free",
                                          "has_arbitrage_nodes", verdicts)


def test_witness_with_tampered_gain_is_rejected():
    m = one_step((2, 3), (3, 2), dim=2)
    nodes = checks.market_nodes(m)
    verdicts = [("t0", 0, ARB, None, (STRICT, (ONE, ONE)))]
    gains = [("t0", F(3)), ("t1", F(3))]
    good = ("t0", 0, STRICT, (ONE, ONE), gains, "t0")
    assert checks.witness_problems(m, nodes, verdicts, good) == []
    assert checks.witness_problems(m, nodes, verdicts, good[:4] + ([("t0", F(3)), ("t1", F(2))], "t0"))
    assert checks.witness_problems(m, nodes, verdicts, None)


def test_audit_flag_on_arbitrage_free_market_is_rejected():
    m = one_step((2,), (F(1, 2),))
    gains = [checks.constant_gains(m, (ONE,))]  # +1 and -1/2
    entries = [("null", F(0), F(0), "t0", False), ("P0", F(-1, 2), ONE, "t1", False)]
    assert checks.audit_problems("arbitrage-free", gains, entries, F(0)) == []
    flagged = [entries[0], ("P0", F(-1, 2), ONE, "t1", True)]
    assert checks.audit_problems("arbitrage-free", gains, flagged, F(0))
    assert checks.audit_problems("arbitrage-free", gains, entries, F(1))


def _first_op(build, label_part, tmp_path):
    ops = build(7, 0, str(tmp_path))
    return next(op for op in ops if label_part in op.label)


def test_cli_check_report_with_wrong_exit_code_or_weight_is_rejected(tmp_path):
    op = _first_op(workloads.build_cli_docs, "check plant-arbitrage --find-arbitrage", tmp_path)
    out = op.run()
    assert out[0] == 1
    assert op.check(out)[0] == []
    assert op.check((0,) + out[1:])[0]  # arbitrage found, yet exit 0

    report_path = str(tmp_path / "check-2-2.json")
    text = open(report_path, encoding="utf-8").read()
    doc = checks.read_json(report_path)
    node = next(n for n in doc["market"]["nodes"] if n["separation"])
    h = node["separation"]["h"]
    node["separation"]["h"] = [c[1:] if c.startswith("-") else "-" + c if c != "0" else c
                               for c in h]
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert op.check(out)[0]
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert op.check(out)[0] == []


def test_transform_rank_warning_is_the_only_known_fault(tmp_path):
    ops = workloads.build_cli_docs(7, 0, str(tmp_path))
    for op in ops:
        if not op.label.startswith("transform"):
            continue
        problems, _ = op.check(op.run())
        codes = {code for code, _ in problems}
        if "dim 1" in op.label:
            assert codes == {checks.KNOWN_FAULT}
        else:
            assert codes == set()
        assert op.check((1,) + op.run()[1:])[0]  # verified market, exit 1


def test_parity_with_wrong_factor_or_exit_is_rejected(tmp_path):
    op = _first_op(workloads.build_cli_docs, "parity spec 0", tmp_path)
    out = op.run()
    assert op.check(out)[0] == []
    assert op.check((1,) + out[1:])[0]
    path = str(tmp_path / "parity-0.json")
    doc = checks.read_json(path)
    doc["parity_factor"] = "1"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert op.check(out)[0]


def test_classify_op_passes_and_a_tampered_verdict_fails():
    ts = generate_market(GeneratorParams(3, 3, 2, 11, "zero-neutral-only"))
    check = workloads._classify_check(workloads.plain(ts), "zero-neutral-only")
    out = workloads._classify_run(ts)()
    problems, nodes = check(out)
    assert problems == [] and nodes == 13
    cls, found = out
    bad = [v for v in workloads.verdict_tuples(cls)]
    rep, stage, status, mem, sep = bad[0]
    bad[0] = (rep, stage, status, (mem[0], tuple(w * 2 for w in mem[1])), sep)
    nodes = checks.market_nodes(workloads.plain(ts))
    assert checks.classification_problems(nodes, "zero-neutral-only", cls.status, bad)
