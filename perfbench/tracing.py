"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions of `rcrs` modules with wrappers
defined here.  A function is replaced under every module-level name that is
bound to it, so calls through `from .oracle import exec_det` style imports are
seen too.  Each wrapped call records a span (name, parent, start, end, query);
a few names are only counted.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name); several functions may share one span name
SPANS = (
    ("rcrs.analysis", "run_solver", "analysis.run_solver"),
    ("rcrs.analysis", "check_fo_validity", "analysis.finite"),
    ("rcrs.analysis", "refute_temporal", "analysis.lasso"),
    ("rcrs.analysis", "witness_temporal_truth", "analysis.lasso"),
    ("rcrs.analysis", "refine_vc", "analysis.vc"),
    ("rcrs.analysis", "legal_formula", "analysis.vc"),
    ("rcrs.analysis", "data_refine_vc", "analysis.vc"),
    ("rcrs.analysis", "emit_smtlib", "analysis.emit"),
    ("rcrs.analysis", "emit_smtlib_sat", "analysis.emit"),
    ("rcrs.cli", "main", "cli.main"),
    ("rcrs.oracle", "all_lassos", "oracle.all_lassos"),
    ("rcrs.oracle", "eval_prefix3", "oracle.eval_prefix3"),
    ("rcrs.oracle", "eval_qltl", "oracle.eval_qltl"),
    ("rcrs.oracle", "exec_det", "oracle.exec_det"),
    ("rcrs.oracle", "behavior", "oracle.behavior"),
    ("rcrs.oracle", "bounded_equiv", "oracle.bounded_equiv"),
    ("rcrs.oracle", "bounded_refute_refinement", "oracle.bounded_refute_refinement"),
    ("rcrs.syntax", "parse_component", "syntax.parse"),
    ("rcrs.syntax", "parse_rcrs", "syntax.parse"),
    ("rcrs.syntax", "print_component", "syntax.print"),
    ("rcrs.diagrams", "translate", "diagrams.translate"),
    ("rcrs.compose", "atomic", "compose.atomic"),
    ("rcrs.lattice", "lift_to", "lattice.lift_to"),
    ("rcrs.formulas", "simplify", "formulas.simplify"),
)

# (module, function, counter name, only calls made from this module or None)
COUNTS = (
    ("rcrs.formulas", "free_vars", "formulas.free_vars", None),
    # the oracle re-checks these on every executed trace
    ("rcrs.compose", "determ", "compose.determ", "rcrs.oracle"),
    ("rcrs.compose", "loop_free", "compose.loop_free", "rcrs.oracle"),
)

# per-layer metrics of a traced run: (name, unit, better)
LAYER_METRICS = (
    ("analysis.run_solver.calls", "count", "lower"),
    ("analysis.run_solver.ms", "ms", "lower"),
    ("analysis.run_solver.decided_ratio", "ratio", "higher"),
    ("analysis.run_solver.spawn_ms", "ms", "lower"),
    ("dlsolver.run.ms", "ms", "lower"),
    ("analysis.finite.calls", "count", "lower"),
    ("analysis.finite.ms", "ms", "lower"),
    ("analysis.finite.exact_ratio", "ratio", "higher"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.ms", "ms", "lower"),
    ("oracle.all_lassos.calls", "count", "lower"),
    ("oracle.all_lassos.words", "count", "lower"),
    ("oracle.all_lassos.ms", "ms", "lower"),
    ("analysis.lasso.calls", "count", "lower"),
    ("analysis.lasso.ms", "ms", "lower"),
    ("analysis.lasso.found_ratio", "ratio", "higher"),
    ("oracle.lasso.use_ratio", "ratio", "higher"),
    ("oracle.eval_prefix3.calls", "count", "lower"),
    ("oracle.eval_prefix3.ms", "ms", "lower"),
    ("oracle.eval_qltl.calls", "count", "lower"),
    ("oracle.eval_qltl.ms", "ms", "lower"),
    ("oracle.exec_det.calls", "count", "lower"),
    ("oracle.exec_det.ms", "ms", "lower"),
    ("compose.determ.calls", "count", "lower"),
    ("compose.loop_free.calls", "count", "lower"),
    ("oracle.behavior.ms", "ms", "lower"),
    ("oracle.bounded_equiv.ms", "ms", "lower"),
    ("oracle.bounded_refute_refinement.calls", "count", "lower"),
    ("oracle.bounded_refute_refinement.ms", "ms", "lower"),
    ("oracle.bounded_refute_refinement.raised", "count", "lower"),
    ("syntax.parse.calls", "count", "lower"),
    ("syntax.parse.ms", "ms", "lower"),
    ("syntax.print.ms", "ms", "lower"),
    ("diagrams.translate.ms", "ms", "lower"),
    ("compose.atomic.calls", "count", "lower"),
    ("compose.atomic.ms", "ms", "lower"),
    ("lattice.lift_to.ms", "ms", "lower"),
    ("formulas.simplify.calls", "count", "lower"),
    ("formulas.simplify.ms", "ms", "lower"),
    ("formulas.free_vars.calls", "count", "lower"),
    ("analysis.vc.calls", "count", "lower"),
    ("analysis.vc.ms", "ms", "lower"),
    ("analysis.emit.ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _caller_module() -> str:
    # frame 0 is this helper, 1 the wrapper, 2 the wrapped function's caller
    return sys._getframe(2).f_globals.get("__name__", "")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, parent index or -1, start, end, query)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._query = -1

    # --- recording -------------------------------------------------------

    def _on_result(self, name, result, caller):
        c = self.counts
        if name == "analysis.run_solver":
            c["analysis.run_solver.decided"] += result in ("sat", "unsat")
        elif name == "analysis.finite":
            c["analysis.finite.exact"] += bool(result.exact)
        elif name == "analysis.lasso":
            c["analysis.lasso.found"] += result is not None
        elif name == "oracle.all_lassos":
            c["oracle.all_lassos.words"] += len(result)
            if caller == "rcrs.analysis":
                c["oracle.lasso.words"] += len(result)
        elif name == "oracle.eval_qltl" and caller == "rcrs.analysis":
            c["oracle.lasso.evaluated"] += 1

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside a query, e.g. while its outcome is checked
                return fn(*args, **kwargs)
            caller = _caller_module()
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, parent, start, end, self._query)
            self._on_result(name, result, caller)
            return result

        return traced

    def _count_wrapper(self, name, fn, only_from):
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack and (only_from is None or _caller_module() == only_from):
                counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def query(self, index: int):
        """The root span of one query; spans inside it carry its index."""
        self._query = index
        root = len(self.spans)
        self.spans.append(None)
        self._stack.append(root)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[root] = ("query", -1, start, perf_counter(), index)

    # --- patching ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "rcrs" or n.startswith("rcrs.")]
        for module, attr, name in SPANS:
            fn = getattr(importlib.import_module(module), attr)
            self._replace(modules, fn, self._span_wrapper(name, fn))
        for module, attr, name, only_from in COUNTS:
            fn = getattr(importlib.import_module(module), attr)
            self._replace(modules, fn, self._count_wrapper(name, fn, only_from))

    def _replace(self, modules, fn, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)

    # --- results -------------------------------------------------------------

    def self_ms(self) -> tuple[Counter, Counter]:
        """Calls and self time (span time minus child spans) per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, ms = Counter(), defaultdict(float)
        for i, (name, _, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            ms[name] += (end - start - child[i]) * 1e3
        return calls, ms

    def layer_metrics(self, solver_run_ms: float) -> dict:
        """Every per-layer metric except trace.overhead_ratio, which needs an
        untraced run to compare with."""
        calls, ms = self.self_ms()
        c = self.counts
        m = {
            "analysis.run_solver.calls": calls["analysis.run_solver"],
            "analysis.run_solver.ms": ms["analysis.run_solver"],
            "analysis.run_solver.decided_ratio": _ratio(
                c["analysis.run_solver.decided"], calls["analysis.run_solver"]
            ),
            "analysis.run_solver.spawn_ms": ms["analysis.run_solver"] - solver_run_ms,
            "dlsolver.run.ms": solver_run_ms,
            "analysis.finite.exact_ratio": _ratio(c["analysis.finite.exact"], calls["analysis.finite"]),
            "oracle.all_lassos.words": c["oracle.all_lassos.words"],
            "analysis.lasso.found_ratio": _ratio(c["analysis.lasso.found"], calls["analysis.lasso"]),
            "oracle.lasso.use_ratio": _ratio(c["oracle.lasso.evaluated"], c["oracle.lasso.words"]),
            "oracle.bounded_refute_refinement.raised": c["oracle.bounded_refute_refinement.raised"],
            "formulas.free_vars.calls": c["formulas.free_vars.calls"],
            "compose.determ.calls": c["compose.determ.calls"],
            "compose.loop_free.calls": c["compose.loop_free.calls"],
        }
        for metric, _, _ in LAYER_METRICS:
            if metric not in m and metric != "trace.overhead_ratio":
                span, _, kind = metric.rpartition(".")
                m[metric] = calls[span] if kind == "calls" else ms[span]
        return m

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, parent, start, end, query) in enumerate(self.spans):
                f.write(json.dumps([i, parent, query, name, start * 1e3, end * 1e3]) + "\n")
