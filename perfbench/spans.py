"""Spans around noarb's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function by a wrapper in every
noarb module that holds it, because several modules import these names
directly (`market` imports the geometry and certcheck functions, `cli`,
`symmetry` and `parity` import `validate`, `classify_node` and
`require_valid`). Wrappers only record while `active` is true, so set-up
and checks run untraced.

Each span keeps its name, parent span, operation id, start and end in
memory; `write()` saves them when the run ends. A span's self time is its
duration minus the full duration of its child spans, wrapper bookkeeping
included, so the cost of tracing lands in no layer's self time.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# (module, function) -> span name; a layer is the name's prefix before the function
TRACED = {
    ("market", "validate"): "market.validate",
    ("market", "enumerate_nodes"): "market.nodes.enumerate_nodes",
    ("market", "conditioned_set"): "market.nodes.conditioned_set",
    ("market", "increment_set"): "market.nodes.increment_set",
    ("market", "reachable_prices"): "market.nodes.reachable_prices",
    ("market", "classify_node"): "market.classify_node",
    ("market", "classify_market"): "market.classify_market",
    ("market", "find_arbitrage"): "market.find_arbitrage",
    ("market", "portfolio_audit"): "market.portfolio_audit",
    ("market", "epsilon_witness"): "market.epsilon_witness",
    ("market", "check_self_financing"): "market.portfolio.check_self_financing",
    ("market", "validate_portfolio"): "market.portfolio.validate_portfolio",
    ("market", "terminal_gain"): "market.portfolio.terminal_gain",
    ("geometry", "relative_interior_membership"): "geometry.relative_interior_membership",
    ("geometry", "hull_membership"): "geometry.hull_membership",
    ("geometry", "is_disperse"): "geometry.is_disperse",
    ("geometry", "is_zero_neutral_set"): "geometry.is_zero_neutral_set",
    ("simplex", "solve"): "simplex.solve",
    ("certcheck", "check_hull_certificate"): "certcheck.check_hull_certificate",
    ("certcheck", "check_weak_witness"): "certcheck.check_weak_witness",
    ("certcheck", "check_strict_separator"): "certcheck.check_strict_separator",
    ("certcheck", "check_separation"): "certcheck.check_separation",
    ("symmetry", "apply_transform"): "symmetry.apply_transform",
    ("symmetry", "apply_point"): "symmetry.apply_point",
    ("symmetry", "verify_symmetry_on_market"): "symmetry.verify_symmetry_on_market",
    ("parity", "verify_parity"): "parity.verify_parity",
    ("parity", "build_parity_market"): "parity.build_parity_market",
    ("io_json", "parse_market"): "io_json.parse.parse_market",
    ("io_json", "market_from_document"): "io_json.parse.market_from_document",
    ("io_json", "parse_transform"): "io_json.parse.parse_transform",
    ("io_json", "transform_from_document"): "io_json.parse.transform_from_document",
    ("io_json", "parse_parity_spec"): "io_json.parse.parse_parity_spec",
    ("io_json", "parity_spec_from_document"): "io_json.parse.parity_spec_from_document",
    ("io_json", "serialize_market"): "io_json.serialize.serialize_market",
    ("io_json", "market_to_document"): "io_json.serialize.market_to_document",
    ("io_json", "serialize_document"): "io_json.serialize.serialize_document",
    ("io_json", "node_report"): "io_json.report.node_report",
    ("io_json", "classification_report"): "io_json.report.classification_report",
    ("io_json", "arbitrage_report"): "io_json.report.arbitrage_report",
    ("io_json", "parity_report_json"): "io_json.report.parity_report_json",
    ("io_json", "symmetry_report_json"): "io_json.report.symmetry_report_json",
    ("io_json", "report_to_text"): "io_json.report.report_to_text",
}

# the geometry span that asks for an LP names its purpose; a solve directly
# under is_zero_neutral_set is the strict-separator LP after a failed hull test
LP_PURPOSE = {
    "geometry.relative_interior_membership": "ri",
    "geometry.hull_membership": "hull",
    "geometry.is_disperse": "disperse",
    "geometry.is_zero_neutral_set": "separator",
}

_TEXT_IN = {"io_json.parse.parse_market", "io_json.parse.parse_transform",
            "io_json.parse.parse_parity_spec"}
_TEXT_OUT = {"io_json.serialize.serialize_market", "io_json.serialize.serialize_document",
             "io_json.report.report_to_text"}


def _bits(values) -> int:
    top = 0
    for v in values:
        n = max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        if n > top:
            top = n
    return top


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names = []
        self.calls = {}
        self.self_s = {}
        self.lp = {p: 0 for p in LP_PURPOSE.values()}
        self.cells = 0
        self.bits_max = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.top_s = 0.0  # time inside outermost spans
        # spans, column-wise: name index, parent span, op id, start, end
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_t0 = array("d")
        self.s_t1 = array("d")
        self._stack = []  # (span id, name, child seconds) of open spans
        self._installed = []

    def install(self, also=()):
        """Wrap every traced function in noarb and in the modules `also`."""
        mods = {k: v for k, v in sys.modules.items()
                if k == "noarb" or k.startswith("noarb.")}
        for (mod, fn_name), name in TRACED.items():
            fn = getattr(mods["noarb." + mod], fn_name)
            wrapper = self._wrap(fn, name)
            for m in list(mods.values()) + list(also):
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        self._installed.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._installed):
            setattr(m, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.self_s[name] = 0.0
        stack = self._stack
        solve = name == "simplex.solve"
        text_in = name in _TEXT_IN
        text_out = name in _TEXT_OUT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            outer0 = perf_counter()
            if solve:
                self._count_lp(*args)
            elif text_in:
                self.bytes_in += len(args[0].encode())
            span = len(self.s_name)
            self.s_name.append(idx)
            self.s_parent.append(stack[-1][0] if stack else -1)
            self.s_op.append(self.op_id)
            self.s_t0.append(0.0)
            self.s_t1.append(0.0)
            frame = [span, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += (t1 - t0) - frame[2]
                self.s_t0[span] = t0
                self.s_t1[span] = t1
                if text_out and result is not None:
                    self.bytes_out += len(result.encode())
                if stack:
                    stack[-1][2] += perf_counter() - outer0
                else:
                    self.top_s += t1 - t0
            return result

        return wrapper

    def _count_lp(self, objective, rows, rhs):
        purpose = next((LP_PURPOSE[f[1]] for f in reversed(self._stack)
                        if f[1] in LP_PURPOSE), None)
        if purpose is not None:
            self.lp[purpose] += 1
        self.cells += len(rows) * len(objective)
        self.bits_max = max(self.bits_max, _bits(objective), _bits(rhs),
                            max((_bits(r) for r in rows), default=0))

    def layer(self, prefix: str) -> tuple:
        """(calls, self seconds) summed over span names under prefix."""
        names = [n for n in self.names if n == prefix or n.startswith(prefix + ".")]
        return (sum(self.calls[n] for n in names), sum(self.self_s[n] for n in names))

    def write(self, path: str, meta: dict):
        spans = [[i, self.s_parent[i], self.s_op[i], self.names[self.s_name[i]],
                  round(self.s_t0[i], 7), round(self.s_t1[i], 7)]
                 for i in range(len(self.s_t0))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta,
                       "columns": ["span", "parent", "op", "name", "start", "end"],
                       "spans": spans}, fh)
