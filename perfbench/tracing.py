"""Spans around every public csspair function, installed from outside the package.

The tracer replaces each public module-level function of the layer
modules with a wrapper, in every csspair module namespace that holds it
(so `repeater.check_cnot_transversal` and `cli`'s `codes.load_css` go
through the wrapper too).  Spans are kept in memory as
(name, start, end, parent span, op id) and written out when the run
ends.  A layer's self time is its span time minus its child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "codes", "gf2", "repeater", "sampling", "statevec", "transversality")
CHECKERS = {"check_cnot_transversal", "check_cz_transversal", "check_cz_sufficient",
            "find_cnot_encoding"}
ORACLES = {"oracle_cnot", "oracle_cz"}
STATEVEC_FUNCS = ("encode_logical", "tensor", "apply_transversal_cnot", "apply_transversal_cz")

SETUP_OP = -1  # op id of spans recorded while the inputs are generated

# Counts derived from input sizes rather than counted inside the program.
COMPUTED = ("codes.min_distance.codewords", "statevec.amplitudes", "statevec.bytes_computed",
            "repeater.exact.patterns")


def group(name: str) -> str:
    """Layer of a span name, with transversality split into checkers and oracles."""
    layer, _, func = name.partition(".")
    if layer == "transversality":
        if func in CHECKERS:
            return "transversality.check"
        if func in ORACLES:
            return "transversality.oracle"
    return layer


# Counters measured where the work happens.  A pre hook sees the call's
# arguments, a post hook its result; each returns (counter, amount) or None.
def _codewords(args, kwargs):
    code = args[0] if args else kwargs["code"]
    # min_distance memoizes on the code; only an unmemoized call enumerates.
    if getattr(code, "_d", None) is None:
        return "codes.min_distance.codewords", 2**code.k - 1
    return None


def _link_work(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    if cfg.mode == "exact":
        return "repeater.exact.patterns", 4**cfg.qa.n
    return "repeater.mc.samples", cfg.samples


def _pairs(result):
    return "transversality.oracle.pairs_checked", result.pairs_checked


def _amplitudes(result):
    amp = getattr(result, "amp", None)
    return None if amp is None else ("statevec.amplitudes", amp.size)


PRE_HOOKS = {"codes.min_distance": _codewords, "repeater.run_local_swapping": _link_work}
POST_HOOKS = {"transversality.oracle_cnot": _pairs, "transversality.oracle_cz": _pairs}
POST_HOOKS.update({f"statevec.{func}": _amplitudes for func in STATEVEC_FUNCS})


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = SETUP_OP
        self.counts: dict[str, float] = defaultdict(float)
        self.busy: dict[str, float] = defaultdict(float)  # inclusive time per counter
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"csspair.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "csspair" and not mod_name.startswith("csspair."):
                continue
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        pre, post = PRE_HOOKS.get(name), POST_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counted = pre(args, kwargs) if pre is not None else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op_id)
            if post is not None:
                counted = post(result)
            if counted is not None and self.op_id != SETUP_OP:
                self.counts[counted[0]] += counted[1]
                self.busy[counted[0]] += end - start
            return result

        return wrapper

    def self_times(self) -> list[tuple[str, float, int]]:
        """(name, self seconds, op id) per span."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(name, end - start - child[i], op)
                for i, (name, start, end, _, op) in enumerate(self.spans)]

    def write(self, path, op_keys: list[str]) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                 "ops": op_keys}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def unit(metric: str) -> str:
    for suffix, name in (("_per_s", "1/s"), ("_s", "s"), ("bytes_computed", "B"),
                         ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return name
    return "count"


def layer_metrics(tracer: Tracer, rounds: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics per round of the op mix, and each group's share of traced op time."""
    by_name_self: dict[str, float] = defaultdict(float)
    by_name_calls: dict[str, int] = defaultdict(int)
    by_group_self: dict[str, float] = defaultdict(float)
    by_group_calls: dict[str, int] = defaultdict(int)
    setup_self: dict[str, float] = defaultdict(float)
    for name, self_s, op in tracer.self_times():
        if op == SETUP_OP:
            setup_self[group(name)] += self_s
            continue
        by_name_self[name] += self_s
        by_name_calls[name] += 1
        by_group_self[group(name)] += self_s
        by_group_calls[group(name)] += 1

    def rate(counter: str) -> float:
        busy = tracer.busy.get(counter, 0.0)
        return tracer.counts.get(counter, 0.0) / busy if busy > 0 else 0.0

    m = {
        "cli.self_s": by_group_self["cli"],
        "cli.calls": by_group_calls["cli"],
        "codes.load_css.self_s": by_name_self["codes.load_css"],
        "codes.load_css.calls": by_name_calls["codes.load_css"],
        "codes.min_distance.self_s": by_name_self["codes.min_distance"],
        "codes.min_distance.calls": by_name_calls["codes.min_distance"],
        "codes.min_distance.codewords": tracer.counts["codes.min_distance.codewords"],
        "gf2.self_s": by_group_self["gf2"],
        "gf2.calls": by_group_calls["gf2"],
        "gf2.rref.self_s": by_name_self["gf2.rref"],
        "gf2.solve_row.self_s": by_name_self["gf2.solve_row"],
        "gf2.solve_row.calls": by_name_calls["gf2.solve_row"],
        "transversality.check.self_s": by_group_self["transversality.check"],
        "transversality.check.calls": by_group_calls["transversality.check"],
        "transversality.oracle.self_s": by_group_self["transversality.oracle"],
        "transversality.oracle.calls": by_group_calls["transversality.oracle"],
        "transversality.oracle.pairs_checked": tracer.counts["transversality.oracle.pairs_checked"],
        "statevec.self_s": by_group_self["statevec"],
        "statevec.calls": by_group_calls["statevec"],
        "statevec.amplitudes": tracer.counts["statevec.amplitudes"],
        "statevec.bytes_computed": 16 * tracer.counts["statevec.amplitudes"],
        "repeater.load_config.self_s": by_name_self["repeater.load_config"],
        "repeater.run_local_swapping.self_s": by_name_self["repeater.run_local_swapping"],
        "repeater.exact.patterns": tracer.counts["repeater.exact.patterns"],
        "repeater.mc.samples": tracer.counts["repeater.mc.samples"],
    }
    m.update({f"statevec.{func}.self_s": by_name_self[f"statevec.{func}"]
              for func in STATEVEC_FUNCS})
    per_round = {name: value / rounds for name, value in m.items()}
    # Rates are per second of inclusive time in the spans that did the work.
    per_round["codes.min_distance.codewords_per_s"] = rate("codes.min_distance.codewords")
    per_round["transversality.oracle.pairs_per_s"] = rate("transversality.oracle.pairs_checked")
    per_round["repeater.exact.patterns_per_s"] = rate("repeater.exact.patterns")
    per_round["repeater.mc.samples_per_s"] = rate("repeater.mc.samples")
    per_round["sampling.self_s"] = setup_self["sampling"]
    total = sum(by_group_self.values())
    shares = {g: s / total for g, s in sorted(by_group_self.items())} if total else {}
    return per_round, shares
