"""Span tracing of momix from the outside.

`Tracer.install()` wraps the public functions of each momix module (and
`LinearProgram.solve`), replacing the function at every module binding of
the name, so calls between modules and from the package namespace are
recorded.  A span is (id, parent id, name, duration); spans are kept in
memory and written out by `dump`.  Generators are timed across their
iteration: the span's duration is the time spent inside the generator's
resumptions, not the consumer's work between them.

A layer's self time is its span minus the part of that span its child
spans cover.  Counting hooks run in their own child span, so their cost is
excluded from every self time; what remains of the tracing overhead shows
as the difference between traced and untraced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction

MODULES = ("model", "payoffs", "strategies", "evaluate", "linalg", "lp", "geometry",
           "synthesis", "montecarlo", "beliefs", "cli")
# Leaf helpers called once per vector element; wrapping them would measure
# the tracer, not the layer.
SKIP = {"linalg.dot", "geometry.as_point"}
HOOK = "trace.hook"
RREF_GROUP = {"linalg.rref", "linalg.nullspace", "linalg.matrix_rank"}


def _bits(values) -> int:
    out = 0
    for v in values:
        if isinstance(v, Fraction):
            out = max(out, v.numerator.bit_length(), v.denominator.bit_length())
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, seconds)
        self.stack = [0]
        self.next_id = 1
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.hooks = {
            "strategies.product_chain": self._product_chain,
            "linalg.solve_linear": self._solve_linear,
            "lp.solve": self._lp_solve,
            "montecarlo.estimate_expectation": self._estimate,
            "beliefs.universal_as_reach": self._universal,
        }

    # -- counting hooks -------------------------------------------------------------

    def _product_chain(self, args, kwargs, result):
        self.counts["strategies.product_chain.nodes"] += len(result.nodes)

    def _solve_linear(self, args, kwargs, result):
        self.counts["linalg.solve_linear.unknowns"] += len(result)
        key = "linalg.solve_linear.max_bits"
        self.maxima[key] = max(self.maxima[key], _bits(result))

    def _lp_solve(self, args, kwargs, result):
        program = args[0]
        self.counts["lp.solve.cells"] += len(program._constraints) * len(program._vars)

    def _estimate(self, args, kwargs, result):
        self.counts["montecarlo.estimate_expectation.steps"] += result.samples * result.horizon

    def _universal(self, args, kwargs, result):
        key = "beliefs.universal_as_reach.bound_bits"
        self.maxima[key] = max(self.maxima[key], result.step_bound.denominator.bit_length())

    # -- wrapping ---------------------------------------------------------------------

    def _new_span(self):
        sid = self.next_id
        self.next_id += 1
        return sid

    def _run_hook(self, name, parent, args, kwargs, result):
        hook = self.hooks.get(name)
        if hook is None:
            return
        t0 = time.perf_counter()
        hook(args, kwargs, result)
        self.spans.append((self._new_span(), parent, HOOK, time.perf_counter() - t0))

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        measure_memory = name == "montecarlo.estimate_expectation"

        def traced(*args, **kwargs):
            sid = self._new_span()
            parent = self.stack[-1]
            self.stack.append(sid)
            if measure_memory:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.stack.pop()
                self.spans.append((sid, parent, name, elapsed))
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = "montecarlo.estimate_expectation.peak_alloc"
                    self.maxima[key] = max(self.maxima[key], peak)
            self._run_hook(name, parent, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._new_span()
            parent = tracer.stack[-1]
            inner = fn(*args, **kwargs)

            def resume():
                busy = 0.0
                items = 0
                try:
                    while True:
                        tracer.stack.append(sid)
                        t0 = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            busy += time.perf_counter() - t0
                            tracer.stack.pop()
                        items += 1
                        yield item
                finally:
                    tracer.spans.append((sid, parent, name, busy))
                    tracer.counts[f"{name}.items"] += items

            return resume()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every public function of the momix modules at each binding."""
        from momix import lp

        replaced = {}
        for short in MODULES:
            module = importlib.import_module(f"momix.{short}")
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and f"{short}.{attr}" not in SKIP):
                    replaced[obj] = self.wrap(f"{short}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "momix" and not modname.startswith("momix."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])
        lp.LinearProgram.solve = self.wrap("lp.solve", lp.LinearProgram.solve)

    # -- results ----------------------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, seconds in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "s": seconds}) + "\n")

    def summary(self):
        """Per name: total time of outermost spans, self time and calls."""
        parent_of = {}
        name_of = {}
        covered = defaultdict(float)
        for sid, parent, name, seconds in self.spans:
            parent_of[sid] = parent
            name_of[sid] = name
            covered[parent] += seconds
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for sid, parent, name, seconds in self.spans:
            if name == HOOK:
                continue
            calls[name] += 1
            self_time[name] += seconds - covered[sid]
            group = RREF_GROUP if name in RREF_GROUP else {name}
            up = parent
            while up and name_of.get(up) not in group:
                up = parent_of.get(up, 0)
            if not up:
                total[name] += seconds
                if name in RREF_GROUP:
                    total["linalg.rref-group"] += seconds
        return total, self_time, calls


def layer_metrics(tracer: Tracer, rounds: int, traced_wall_s: float, import_s: float,
                  scale: float) -> dict:
    """The per-layer metrics, times and counts per round of questions.
    Measured times are multiplied by `scale` into seconds at reference
    speed, as the end-to-end ones are (`traced_wall_s` already is)."""
    total, self_time, calls = tracer.summary()
    c = tracer.counts
    per = 1.0 / rounds
    tables = c["strategies.enumerate_pure.items"]
    evaluations = calls["evaluate.expected_payoff"]
    mc_s = total["montecarlo.estimate_expectation"]
    out = {
        "strategies.enumerate_pure.s": (total["strategies.enumerate_pure"] * per, "s"),
        "strategies.enumerate_pure.tables": (tables * per, "count"),
        "strategies.product_chain.s": (total["strategies.product_chain"] * per, "s"),
        "strategies.product_chain.calls": (calls["strategies.product_chain"] * per, "count"),
        "strategies.product_chain.nodes": (c["strategies.product_chain.nodes"] * per, "count"),
        "evaluate.pure_payoff_set.self_s": (self_time["evaluate.pure_payoff_set"] * per, "s"),
        "evaluate.expected_payoff.self_s": (self_time["evaluate.expected_payoff"] * per, "s"),
        "evaluate.expected_payoff.calls": (evaluations * per, "count"),
        "evaluate.tables_per_evaluation": (tables / evaluations if evaluations else 0.0, "ratio"),
        "linalg.solve_linear.s": (total["linalg.solve_linear"] * per, "s"),
        "linalg.solve_linear.calls": (calls["linalg.solve_linear"] * per, "count"),
        "linalg.solve_linear.unknowns": (c["linalg.solve_linear.unknowns"] * per, "count"),
        "linalg.solve_linear.max_bits": (tracer.maxima["linalg.solve_linear.max_bits"], "bits"),
        "linalg.rref.s": (total["linalg.rref-group"] * per, "s"),
        "lp.solve.s": (total["lp.solve"] * per, "s"),
        "lp.solve.calls": (calls["lp.solve"] * per, "count"),
        "lp.solve.cells": (c["lp.solve.cells"] * per, "count"),
        "geometry.convex_hull.self_s": (self_time["geometry.convex_hull"] * per, "s"),
        "geometry.dominating_face_decomposition.self_s":
            (self_time["geometry.dominating_face_decomposition"] * per, "s"),
        "geometry.supporting_map.self_s": (self_time["geometry.supporting_map"] * per, "s"),
        "geometry.caratheodory.self_s": (self_time["geometry.caratheodory"] * per, "s"),
        "geometry.pareto_frontier.s": (total["geometry.pareto_frontier"] * per, "s"),
        "synthesis.achieve.self_s": (self_time["synthesis.achieve"] * per, "s"),
        "synthesis.approximate.self_s": (self_time["synthesis.approximate"] * per, "s"),
        "synthesis.lex_optimize.s": (total["synthesis.lex_optimize"] * per, "s"),
        "synthesis.reduce_support.self_s": (self_time["synthesis.reduce_support"] * per, "s"),
        "montecarlo.estimate_expectation.s": (mc_s * per, "s"),
        "montecarlo.estimate_expectation.steps_per_s":
            (c["montecarlo.estimate_expectation.steps"] / mc_s if mc_s else 0.0, "1/s"),
        "montecarlo.estimate_expectation.peak_alloc_mb":
            (tracer.maxima["montecarlo.estimate_expectation.peak_alloc"] / 2 ** 20, "MB"),
        "beliefs.universal_as_reach.s": (total["beliefs.universal_as_reach"] * per, "s"),
        "beliefs.universal_as_reach.bound_bits":
            (tracer.maxima["beliefs.universal_as_reach.bound_bits"], "bits"),
        "payoffs.load_problem.s": (total["payoffs.load_problem"] * per, "s"),
        "setup.import_s": (import_s, "s"),
        "cli.run.self_s": (self_time["cli.run"] * per, "s"),
    }
    factor = {"s": scale, "1/s": 1 / scale}
    out = {name: (value * factor.get(unit, 1), unit) for name, (value, unit) in out.items()}
    out["trace.wall_s"] = (traced_wall_s, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
