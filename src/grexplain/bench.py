"""Wall-clock benchmarking of recognition versus explanation.

For every scenario the harness times the recognizer (posterior trace) and the
explanation stage (explanation list, marker selection, counterfactual
planning, rendering) separately, and within the explanation stage tracks the
share spent inside the counterfactual planner.  Reports aggregate per domain
kind as mean (sd) seconds, mirroring the usual four-column layout: total
runtime with explanations, explanation-only runtime, percentage increase over
recognition alone, and counterfactual-planning share of the increase.

Timing is passive: with instrumentation removed the computed explanations are
byte-for-byte identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, stdev

from .errors import GrexError
from .explainer import answer_why, answer_why_not, build_explanan, rank_observations
from .planner import DEFAULT_BUDGET
from .recognizer import GrProblem, mirror_posteriors
from .scenario import build_problem, parse_scenario_file


@dataclass
class ScenarioTiming:
    name: str
    recognition_s: float
    explanation_s: float
    counterfactual_s: float


@dataclass
class TimingReport:
    """One row of the benchmark table."""

    domain: str
    scenario_count: int
    total_with_explain: float  # mean seconds, recognition + explanation
    total_sd: float
    explain_only: float  # mean seconds, explanation stage alone
    explain_only_sd: float
    time_increase_pct: float
    counterfactual_planning_pct: float
    failures: list = field(default_factory=list)


def time_scenario(problem: GrProblem, name: str = "",
                  budget: int = DEFAULT_BUDGET) -> ScenarioTiming:
    """Time recognition and explanation for one problem."""
    started = time.perf_counter()
    trace = mirror_posteriors(problem, budget=budget)
    recognition_s = time.perf_counter() - started

    counterfactual_s = 0.0
    started = time.perf_counter()
    explanan = build_explanan(trace)
    if explanan.entries:
        answer_why(problem, explanan)
        counterfactual_s = answer_why_not(problem, explanan,
                                          budget=budget).planning_s
        rank_observations(explanan)
    explanation_s = time.perf_counter() - started

    return ScenarioTiming(name, recognition_s, explanation_s, counterfactual_s)


def run_bench(paths, budget: int = DEFAULT_BUDGET) -> list:
    """Benchmark a set of scenario files, one TimingReport per domain kind.

    Scenario failures are recorded on the report and do not stop the run.
    Results are grouped and ordered deterministically by scenario name.
    """
    rows = {}
    failures = {}
    for path in sorted(Path(p) for p in paths):
        kind = "(unloadable)"
        try:
            scenario = parse_scenario_file(path)
            problem = build_problem(scenario)
            kind = scenario.kind
            timing = time_scenario(problem, name=path.stem, budget=budget)
        except GrexError as exc:
            failures.setdefault(kind, []).append(f"{path.name}: {exc}")
            continue
        rows.setdefault(kind, []).append(timing)

    reports = []
    for kind in sorted(set(rows) | set(failures)):
        timings = rows.get(kind, [])
        if not timings:
            reports.append(TimingReport(kind, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                        failures.get(kind, [])))
            continue
        totals = [t.recognition_s + t.explanation_s for t in timings]
        explains = [t.explanation_s for t in timings]
        recognitions = sum(t.recognition_s for t in timings)
        explain_sum = sum(explains)
        cf_sum = sum(t.counterfactual_s for t in timings)
        reports.append(TimingReport(
            domain=kind,
            scenario_count=len(timings),
            total_with_explain=mean(totals),
            total_sd=stdev(totals) if len(totals) > 1 else 0.0,
            explain_only=mean(explains),
            explain_only_sd=stdev(explains) if len(explains) > 1 else 0.0,
            time_increase_pct=(explain_sum / recognitions * 100.0
                               if recognitions > 0 else 0.0),
            counterfactual_planning_pct=(cf_sum / explain_sum * 100.0
                                         if explain_sum > 0 else 0.0),
            failures=failures.get(kind, []),
        ))
    return reports


def format_report(reports) -> str:
    """Render benchmark rows as a fixed-width table."""
    header = (f"{'domain (#problems)':<22}{'with explain (s)':>18}"
              f"{'explain only (s)':>18}{'increase %':>12}{'cf planning %':>15}")
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.domain + f' ({r.scenario_count})':<22}"
            f"{f'{r.total_with_explain:.3f} ({r.total_sd:.3f})':>18}"
            f"{f'{r.explain_only:.3f} ({r.explain_only_sd:.3f})':>18}"
            f"{r.time_increase_pct:>12.2f}"
            f"{r.counterfactual_planning_pct:>15.2f}")
        for failure in r.failures:
            lines.append(f"  failed: {failure}")
    return "\n".join(lines)
