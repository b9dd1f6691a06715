"""Contrastive why / why-not explanation of a recognizer's output.

The explainer consumes four inputs carried by a PosteriorTrace (the
observation count, the predicted goal set, the counterfactual goal set and
the per-prefix posteriors), plus the optional goal priors that
``build_explanan`` takes beside the trace and that switch the weights to the
prior-adjusted form.  From these it builds the complete explanation list
(one log-odds weight per predicted/counterfactual goal pair per
observation), selects observational markers for "why g?" answers and
counterfactual markers plus counterfactual actions for "why not g'?" answers,
and ranks observations for both question types.

Weights are natural-log posterior ratios.  Entries whose weight would be
undefined (a zero posterior) or exactly zero (evidence moving both goals
identically) are excluded from the list and recorded on a side list instead
of being stored as infinities or noise; the shared opening moves of a plan
therefore carry no rank.
"""

import math
import time
from typing import NamedTuple, Optional, Sequence

from .errors import (EmptyExplanan, UnsolvableGoal, ZeroPosterior, ZeroPrior)
from .planner import DEFAULT_BUDGET, PlanningTask, optimal_plan
from .recognizer import GrProblem, PosteriorTrace
from .strips import GroundAction


def _log_ratio(a: float, b: float, error: type, what: str) -> float:
    """``math.log(a / b)``, or ``error`` for an input that is not positive
    or a ratio past float range (priors far apart bring one about)."""
    if a <= 0 or b <= 0:
        raise error(f"{what}s must be positive, got ({a}, {b})")
    if not 0 < a / b < math.inf:
        raise error(f"{what} ratio {a} / {b} is out of floating-point range, "
                    f"so the priors are too far apart")
    return math.log(a / b)


def woe_uniform(p: float, p_prime: float) -> float:
    """Weight of evidence for one hypothesis over another, uniform priors:
    the natural log of the posterior ratio."""
    return _log_ratio(p, p_prime, ZeroPosterior, "posterior")


def woe_with_priors(p: float, p_prime: float, prior: float,
                    prior_prime: float) -> float:
    """Weight of evidence under arbitrary priors: log posterior ratio minus
    log prior ratio.  Reduces exactly to ``woe_uniform`` when priors match."""
    woe = woe_uniform(p, p_prime)
    return woe - _log_ratio(prior, prior_prime, ZeroPrior, "prior")


class ExplananEntry(NamedTuple):
    """One weighted cause: at observation ``observation_index`` the evidence
    favours ``predicted_goal`` over ``counterfactual_goal`` by ``woe``."""

    predicted_goal: int
    counterfactual_goal: int
    observation_index: int  # 1-based
    woe: float

    @property
    def pair(self):
        return (self.predicted_goal, self.counterfactual_goal)


class Exclusion(NamedTuple):
    """A (pair, observation) combination left out of the explanation list."""

    observation_index: int
    reason: str  # "zero-posterior" | "no-weight"
    predicted_goal: int
    counterfactual_goal: int


class CompleteExplanan(NamedTuple):
    """Every stored weight-of-evidence entry, grouped implicitly by goal pair,
    plus the side list of exclusions."""

    entries: tuple
    excluded_pairs: tuple
    observation_count: int
    predicted: frozenset
    counterfactual: frozenset

    @property
    def excluded_observations(self) -> tuple:
        """Observation indices that contribute no entry at all (e.g. opening
        moves shared by every goal hypothesis)."""
        with_entries = {e.observation_index for e in self.entries}
        return tuple(i for i in range(1, self.observation_count + 1)
                     if i not in with_entries)


def build_explanan(trace: PosteriorTrace,
                   priors: Optional[Sequence[float]] = None) -> CompleteExplanan:
    """Realize the full generation loop: one entry per observation per
    (predicted goal, counterfactual goal) pair, with undefined or weightless
    combinations diverted to the side list.  With an empty counterfactual
    set there is nothing to contrast against, so both lists are empty.
    """
    predicted = sorted(trace.predicted)
    counterfactual = sorted(trace.counterfactual)
    entries = []
    excluded = []
    for i, dist in enumerate(trace.per_prefix, start=1):
        for g in predicted:
            for g_prime in counterfactual:
                p, p_prime = dist[g], dist[g_prime]
                if p == 0 or p_prime == 0:
                    excluded.append(Exclusion(i, "zero-posterior", g, g_prime))
                    continue
                if priors is None:
                    woe = woe_uniform(p, p_prime)
                else:
                    woe = woe_with_priors(p, p_prime, priors[g], priors[g_prime])
                if woe == 0.0:
                    excluded.append(Exclusion(i, "no-weight", g, g_prime))
                    continue
                entries.append(ExplananEntry(g, g_prime, i, woe))

    return CompleteExplanan(
        entries=tuple(entries), excluded_pairs=tuple(excluded),
        observation_count=trace.observation_count,
        predicted=trace.predicted, counterfactual=trace.counterfactual)


class WhyAnswer(NamedTuple):
    """Observational markers: per goal pair, the entries of maximum weight."""

    markers: tuple
    rendered: str = ""

    @property
    def top(self) -> tuple:
        """The markers of greatest weight; empty when there are none."""
        return _extremes(self.markers, lambda e: None, max).get(None, ())


class CfSelection(NamedTuple):
    """Why-not material for one counterfactual goal: its minimum-weight
    markers, the earliest of them (the first point the evidence turned
    against the goal, ties keeping the first listed; None without markers)
    and the action an optimal plan would have taken instead."""

    goal: int
    markers: tuple
    marker: Optional[ExplananEntry]
    action: Optional[GroundAction]
    status: str  # "action" | "already-satisfied" | "unsolvable" | "no-evidence"


class WhyNotAnswer(NamedTuple):
    selections: tuple
    planning_s: float  # seconds spent in counterfactual_action
    rendered: str = ""

    @property
    def markers(self) -> tuple:
        return tuple(e for sel in self.selections for e in sel.markers)

    @property
    def counterfactual_actions(self) -> dict:
        """Goal index -> counterfactual action, for goals that have one."""
        return {sel.goal: sel.action for sel in self.selections
                if sel.action is not None}


def _extremes(entries, key, pick) -> dict:
    """The one tie rule of every marker and rank: group ``entries`` by
    ``key(entry)``, groups in order of first appearance, and map each key
    to the tuple of its group's entries, in list order, whose weight equals
    ``pick`` (``max`` or ``min``) of the group's weights.  Weights compare
    as floats, and every tie is kept."""
    groups = {}
    for e in entries:
        groups.setdefault(key(e), []).append(e)
    return {k: tuple(e for e in group if e.woe == extreme)
            for k, group in groups.items()
            for extreme in [pick(e.woe for e in group)]}


def _entries(explanan: CompleteExplanan, question: str) -> tuple:
    if not explanan.entries:
        raise EmptyExplanan(
            "no observation weighs a predicted goal against a counterfactual "
            f"goal, so there is no {question} answer")
    return explanan.entries


def select_om(explanan: CompleteExplanan) -> WhyAnswer:
    """Markers answering "why g?": for every goal pair, all entries attaining
    that pair's maximum weight (ties are all retained)."""
    ties = _extremes(_entries(explanan, "why"), lambda e: e.pair, max)
    return WhyAnswer(markers=tuple(e for group in ties.values() for e in group))


def select_cf_om(explanan: CompleteExplanan) -> list:
    """Markers answering "why not g'?": per counterfactual goal, the entries
    of minimum weight across every predicted goal (ties all retained).

    Returns (goal index, entries) pairs ordered by goal index.
    """
    return sorted(_extremes(_entries(explanan, "why-not"),
                            lambda e: e.counterfactual_goal, min).items())


def counterfactual_action(problem: GrProblem, marker: ExplananEntry,
                          g_prime: int,
                          budget: int = DEFAULT_BUDGET) -> Optional[GroundAction]:
    """The first action of an optimal plan to ``g_prime`` from the state
    preceding the marker's observation: what the agent would have done.

    The returned action may well lie on a suboptimal plan toward a predicted
    goal; that is fine, it is still the optimal first step toward ``g_prime``.
    Returns None when the goal already holds in that state, and raises
    UnsolvableGoal when no plan exists.
    """
    state = problem.state_before(marker.observation_index)
    goal = problem.goals[g_prime]
    if goal & state == goal:
        return None
    plan = optimal_plan(PlanningTask(problem.domain, state, goal), budget)
    if plan is None:
        raise UnsolvableGoal(
            f"goal {problem.goal_names[g_prime]} is unreachable from the state "
            f"before observation {marker.observation_index}")
    return plan[0]


def answer_why(problem: GrProblem, explanan: CompleteExplanan,
               goals: Optional[Sequence[int]] = None) -> WhyAnswer:
    """Assemble and render the "why g?" answer.

    With ``goals``, only markers for those predicted goals are kept; if none
    remain, the answer has no markers and an empty rendering.
    """
    from .render import render

    answer = select_om(explanan)
    if goals is not None:
        answer = WhyAnswer(markers=tuple(e for e in answer.markers
                                         if e.predicted_goal in goals))
    if answer.markers:
        answer = answer._replace(rendered=render(answer, problem))
    return answer


def answer_why_not(problem: GrProblem, explanan: CompleteExplanan,
                   goals: Optional[Sequence[int]] = None,
                   budget: int = DEFAULT_BUDGET) -> WhyNotAnswer:
    """Assemble and render the "why not g'?" answer.

    On marker ties the counterfactual action is planned from the earliest
    marker (the first point the evidence turned against the goal).  A goal
    with no entries at all is reported as ruled out by infeasibility (its
    posterior hit zero) or as carrying no evidence (it never separated from
    the predicted goal).  ``planning_s`` totals the seconds spent planning
    counterfactual actions; timing is passive and never changes the answer.
    """
    from .render import render

    cf_groups = dict(select_cf_om(explanan))
    ruled_out = {x.counterfactual_goal for x in explanan.excluded_pairs
                 if x.reason == "zero-posterior"}
    selections = []
    planning_s = 0.0
    for g_prime in sorted(explanan.counterfactual):
        if goals is not None and g_prime not in goals:
            continue
        markers = cf_groups.get(g_prime)
        if markers is None:
            status = "unsolvable" if g_prime in ruled_out else "no-evidence"
            selections.append(CfSelection(g_prime, (), None, None, status))
            continue
        marker = min(markers, key=lambda e: e.observation_index)
        started = time.perf_counter()
        try:
            action = counterfactual_action(problem, marker, g_prime, budget)
            status = "already-satisfied" if action is None else "action"
        except UnsolvableGoal:
            action, status = None, "unsolvable"
        planning_s += time.perf_counter() - started
        selections.append(CfSelection(g_prime, markers, marker, action, status))

    answer = WhyNotAnswer(tuple(selections), planning_s)
    return answer._replace(rendered=render(answer, problem))


def rank_observations(explanan: CompleteExplanan):
    """Rank every observation for "why" and "why not" questions.

    Why-ranks order observations by descending weight (rank 1 is the
    observational marker), why-not ranks by ascending weight (rank 1 is the
    counterfactual marker).  Across multiple goal pairs an observation is
    scored by its maximum weight for why and its minimum for why-not.  Ties
    share a rank (dense ranking); observations excluded from the explanation
    list rank 0 in both orderings.
    """
    def dense_ranks(pick, reverse):
        scores = {i: ties[0].woe for i, ties in _extremes(
            explanan.entries, lambda e: e.observation_index, pick).items()}
        ordered = sorted(set(scores.values()), reverse=reverse)
        rank_of = {value: r for r, value in enumerate(ordered, start=1)}
        return {i: rank_of[scores[i]] if i in scores else 0
                for i in range(1, explanan.observation_count + 1)}

    return dense_ranks(max, reverse=True), dense_ranks(min, reverse=False)
