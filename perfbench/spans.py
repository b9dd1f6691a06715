"""Spans and counters for the traced run, installed from outside the program.

``Tracer.install`` replaces each traced public function with a wrapper in
every grexplain module that holds a reference to it, so calls are caught
wherever the name is looked up (``recognizer`` imports ``optimal_cost`` and
``explainer`` imports ``optimal_plan`` by name, for example).
``DomainDefinition.applicable_actions`` gets counters only, no span, to keep
the overhead of its tens of thousands of calls per request bounded.

Spans are kept in memory as (name, start, end, parent index, request id) and
written out by ``dump``.  A layer's self time is the duration of its spans
minus the part their child spans cover.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# Traced function -> layer.  Module paths are where each name is defined.
LAYERS = {
    "grexplain.scenario.load_scenario": "scenario",
    "grexplain.grids.compile_grid": "scenario",
    "grexplain.sokoban.compile_sokoban": "scenario",
    "grexplain.planner.optimal_cost": "planner",
    "grexplain.planner.optimal_plan": "planner",
    "grexplain.recognizer.mirror_posteriors": "recognizer",
    "grexplain.explainer.build_explanan": "explainer",
    "grexplain.explainer.answer_why": "explainer",
    "grexplain.explainer.answer_why_not": "explainer",
    "grexplain.explainer.counterfactual_action": "explainer",
    "grexplain.explainer.rank_observations": "explainer",
    "grexplain.explainer.select_om": "explainer",
    "grexplain.explainer.select_cf_om": "explainer",
    "grexplain.render.render": "render",
    "grexplain.cli.main": "cli",
}
DOMAIN_INIT = "grexplain.strips.DomainDefinition.__init__"
SPAN_LAYER = dict(LAYERS, **{DOMAIN_INIT: "scenario"})


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, request]
        self.stack = []  # indices of open spans
        self.request = None  # id of the request being sent
        self.scenario = None  # scenario path of that request
        self.cycle = 0
        self.counts = defaultdict(int)
        self.successor_s = 0.0
        self.queries = set()  # (cycle, scenario, state, goal) searched
        self.verb_of = {}  # request id -> verb
        self._undo = []

    # -- recording ---------------------------------------------------------
    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.request])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = perf_counter()

    def _wrap(self, name, fn):
        short = name.rsplit(".", 1)[1]
        tracer = self

        def traced(*args, **kwargs):
            if short in ("optimal_cost", "optimal_plan"):
                task = args[0]
                tracer.queries.add((tracer.cycle, tracer.scenario,
                                    task.initial, task.goal))
                tracer.counts[short] += 1
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if short == "build_explanan":
                tracer.counts["entries"] += len(result.entries)
                tracer.counts["build_explanan"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------
    def install(self):
        """Wrap every traced function in every module that references it."""
        import grexplain.cli  # noqa: F401  (loads every module it uses)
        from grexplain import strips

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "grexplain" or n.startswith("grexplain.")]
        for name in LAYERS:
            module_name, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)

        cls = strips.DomainDefinition
        init, successors = cls.__init__, cls.applicable_actions
        tracer = self

        def traced_init(domain, *args, **kwargs):
            tracer._open(DOMAIN_INIT)
            try:
                init(domain, *args, **kwargs)
            finally:
                tracer._close()
            tracer.counts["domains"] += 1
            tracer.counts["facts"] += len(domain.facts)
            tracer.counts["actions"] += len(domain.actions)

        def counted_successors(domain, state):
            started = perf_counter()
            result = successors(domain, state)
            tracer.successor_s += perf_counter() - started
            tracer.counts["successor_calls"] += 1
            tracer.counts["successors"] += len(result)
            if tracer.stack:
                inner = tracer.spans[tracer.stack[-1]][0]
                if inner.endswith(".optimal_cost"):
                    tracer.counts["expansions"] += 1
                elif inner.endswith(".optimal_plan"):
                    tracer.counts["reconstruct_calls"] += 1
            return result

        self._undo += [(cls, "__init__", init),
                       (cls, "applicable_actions", successors)]
        cls.__init__ = traced_init
        cls.applicable_actions = counted_successors

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------
    def self_times(self) -> dict:
        """Self seconds per span name: duration minus child coverage."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def total_times(self) -> dict:
        out = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def metrics(self, requests: int) -> dict:
        """Per-layer metrics; counts and times are means per request."""
        selfs, totals, c = self.self_times(), self.total_times(), self.counts
        layer_self = defaultdict(float)
        for name, seconds in selfs.items():
            layer_self[SPAN_LAYER[name]] += seconds
        searches = c["optimal_cost"] + c["optimal_plan"]
        ms = 1000.0 / requests
        values = {
            "scenario.load_ms": (totals["grexplain.scenario.load_scenario"] * ms, "ms"),
            "scenario.compile_ms": ((totals["grexplain.grids.compile_grid"]
                                     + totals["grexplain.sokoban.compile_sokoban"])
                                    * ms, "ms"),
            "scenario.facts": (c["facts"] / c["domains"], "count"),
            "scenario.actions": (c["actions"] / c["domains"], "count"),
            "strips.successor_calls": (c["successor_calls"] / requests, "count"),
            "strips.successor_s": (self.successor_s / requests, "s"),
            "strips.successors_per_call": (c["successors"] / c["successor_calls"],
                                           "count"),
            "planner.searches": (searches / requests, "count"),
            "planner.optimal_cost_calls": (c["optimal_cost"] / requests, "count"),
            "planner.optimal_plan_calls": (c["optimal_plan"] / requests, "count"),
            "planner.optimal_cost_s": (totals["grexplain.planner.optimal_cost"]
                                       / requests, "s"),
            "planner.optimal_plan_s": (totals["grexplain.planner.optimal_plan"]
                                       / requests, "s"),
            "planner.expansions": (c["expansions"] / requests, "count"),
            "planner.reconstruct_calls": (c["reconstruct_calls"] / requests, "count"),
            "planner.distinct_query_ratio": (len(self.queries) / searches, "ratio"),
            "recognizer.self_ms": (selfs["grexplain.recognizer.mirror_posteriors"]
                                   * ms, "ms"),
            "recognizer.searches_per_request": (c["optimal_cost"] / requests,
                                                "count"),
            "explainer.build_explanan_ms": (totals["grexplain.explainer.build_explanan"]
                                            * ms, "ms"),
            "explainer.entries": (c["entries"] / c["build_explanan"], "count"),
            "explainer.counterfactual_ms": (
                totals["grexplain.explainer.counterfactual_action"] * ms, "ms"),
            "explainer.rank_ms": ((totals["grexplain.explainer.rank_observations"]
                                   + totals["grexplain.explainer.select_om"]
                                   + totals["grexplain.explainer.select_cf_om"])
                                  * ms, "ms"),
            "render.self_ms": (layer_self["render"] * ms, "ms"),
            "cli.self_ms": (layer_self["cli"] * ms, "ms"),
            "cli.whynot_p50_ms": (self.verb_p50_ms()["whynot"], "ms"),
        }
        return values

    def verb_p50_ms(self) -> dict:
        """Median ``main`` span per verb, for the verbs the run sent."""
        by_verb = defaultdict(list)
        for name, start, end, _, req in self.spans:
            if name == "grexplain.cli.main":
                by_verb[self.verb_of[req]].append(end - start)
        return {v: statistics.median(d) * 1000.0 for v, d in by_verb.items()}

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as out:
            for name, start, end, parent, req in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "request": req,
                                      "verb": self.verb_of.get(req)}) + "\n")
