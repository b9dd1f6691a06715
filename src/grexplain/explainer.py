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

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (EmptyExplanan, UnsolvableGoal, ZeroPosterior, ZeroPrior)
from .planner import DEFAULT_BUDGET, PlanningTask, optimal_plan
from .recognizer import GrProblem, PosteriorTrace
from .strips import GroundAction


def woe_uniform(p: float, p_prime: float) -> float:
    """Weight of evidence for one hypothesis over another, uniform priors:
    the natural log of the posterior ratio."""
    if p <= 0 or p_prime <= 0:
        raise ZeroPosterior(f"posteriors must be positive, got ({p}, {p_prime})")
    return math.log(p / p_prime)


def woe_with_priors(p: float, p_prime: float, prior: float,
                    prior_prime: float) -> float:
    """Weight of evidence under arbitrary priors: log posterior ratio minus
    log prior ratio.  Reduces exactly to ``woe_uniform`` when priors match."""
    if p <= 0 or p_prime <= 0:
        raise ZeroPosterior(f"posteriors must be positive, got ({p}, {p_prime})")
    if prior <= 0 or prior_prime <= 0:
        raise ZeroPrior(f"priors must be positive, got ({prior}, {prior_prime})")
    return math.log(p / p_prime) - math.log(prior / prior_prime)


@dataclass(frozen=True)
class ExplananEntry:
    """One weighted cause: at observation ``observation_index`` the evidence
    favours ``predicted_goal`` over ``counterfactual_goal`` by ``woe``."""

    predicted_goal: int
    counterfactual_goal: int
    observation_index: int  # 1-based
    woe: float

    @property
    def pair(self):
        return (self.predicted_goal, self.counterfactual_goal)


@dataclass(frozen=True)
class Exclusion:
    """A (pair, observation) combination left out of the explanation list."""

    observation_index: int
    reason: str  # "zero-posterior" | "no-weight"
    predicted_goal: Optional[int] = None
    counterfactual_goal: Optional[int] = None


@dataclass(frozen=True)
class CompleteExplanan:
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


@dataclass
class WhyAnswer:
    """Observational markers: per goal pair, the entries of maximum weight."""

    markers: tuple
    rendered: str = ""

    @property
    def top(self) -> tuple:
        """The markers of greatest weight; empty when there are none."""
        if not self.markers:
            return ()
        best = max(e.woe for e in self.markers)
        return tuple(e for e in self.markers if e.woe == best)


@dataclass
class CfSelection:
    """Why-not material for one counterfactual goal: its minimum-weight
    markers and the action an optimal plan would have taken instead."""

    goal: int
    markers: tuple
    action: Optional[GroundAction]
    status: str  # "action" | "already-satisfied" | "unsolvable" | "no-evidence"

    @property
    def marker(self) -> Optional[ExplananEntry]:
        """The earliest marker (the first point the evidence turned against
        the goal), or None without markers; ties keep the first listed."""
        return min(self.markers, key=lambda e: e.observation_index,
                   default=None)


@dataclass
class WhyNotAnswer:
    selections: tuple
    rendered: str = ""
    planning_s: float = 0.0  # seconds spent in counterfactual_action

    @property
    def markers(self) -> tuple:
        return tuple(e for sel in self.selections for e in sel.markers)

    @property
    def counterfactual_actions(self) -> dict:
        """Goal index -> counterfactual action, for goals that have one."""
        return {sel.goal: sel.action for sel in self.selections
                if sel.action is not None}


def select_om(explanan: CompleteExplanan) -> WhyAnswer:
    """Markers answering "why g?": for every goal pair, all entries attaining
    that pair's maximum weight (ties are all retained)."""
    if not explanan.entries:
        raise EmptyExplanan("no observation weighs a predicted goal against a "
                            "counterfactual goal, so there is no why answer")
    groups = {}  # pair -> its entries, pairs in order of first appearance
    for e in explanan.entries:
        groups.setdefault(e.pair, []).append(e)
    markers = []
    for group in groups.values():
        best = max(e.woe for e in group)
        markers.extend(e for e in group if e.woe == best)
    return WhyAnswer(markers=tuple(markers))


def select_cf_om(explanan: CompleteExplanan) -> list:
    """Markers answering "why not g'?": per counterfactual goal, the entries
    of minimum weight across every predicted goal (ties all retained).

    Returns (goal index, entries) pairs ordered by goal index.
    """
    if not explanan.entries:
        raise EmptyExplanan("no observation weighs a predicted goal against a "
                            "counterfactual goal, so there is no why-not answer")
    result = []
    for g_prime in sorted(explanan.counterfactual):
        group = [e for e in explanan.entries if e.counterfactual_goal == g_prime]
        if not group:
            continue
        worst = min(e.woe for e in group)
        ties = tuple(e for e in group if e.woe == worst)
        result.append((g_prime, ties))
    return result


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
        answer.rendered = render(answer, problem)
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
    selections = []
    planning_s = 0.0
    for g_prime in sorted(explanan.counterfactual):
        if goals is not None and g_prime not in goals:
            continue
        markers = cf_groups.get(g_prime)
        if markers is None:
            reasons = {x.reason for x in explanan.excluded_pairs
                       if x.counterfactual_goal == g_prime}
            status = "unsolvable" if "zero-posterior" in reasons else "no-evidence"
            selections.append(CfSelection(g_prime, (), None, status))
            continue
        selection = CfSelection(g_prime, markers, None, "action")
        started = time.perf_counter()
        try:
            selection.action = counterfactual_action(
                problem, selection.marker, g_prime, budget)
            if selection.action is None:
                selection.status = "already-satisfied"
        except UnsolvableGoal:
            selection.status = "unsolvable"
        planning_s += time.perf_counter() - started
        selections.append(selection)

    answer = WhyNotAnswer(selections=tuple(selections), planning_s=planning_s)
    answer.rendered = render(answer, problem)
    return answer


def rank_observations(explanan: CompleteExplanan):
    """Rank every observation for "why" and "why not" questions.

    Why-ranks order observations by descending weight (rank 1 is the
    observational marker), why-not ranks by ascending weight (rank 1 is the
    counterfactual marker).  Across multiple goal pairs an observation is
    scored by its maximum weight for why and its minimum for why-not.  Ties
    share a rank (dense ranking); observations excluded from the explanation
    list rank 0 in both orderings.
    """
    why_score = {}
    whynot_score = {}
    for e in explanan.entries:
        i = e.observation_index
        why_score[i] = max(why_score.get(i, -math.inf), e.woe)
        whynot_score[i] = min(whynot_score.get(i, math.inf), e.woe)

    def dense_ranks(scores, reverse):
        ordered = sorted(set(scores.values()), reverse=reverse)
        rank_of = {value: r for r, value in enumerate(ordered, start=1)}
        return {i: rank_of[v] for i, v in scores.items()}

    why_ranks = dense_ranks(why_score, reverse=True)
    whynot_ranks = dense_ranks(whynot_score, reverse=False)
    for i in range(1, explanan.observation_count + 1):
        why_ranks.setdefault(i, 0)
        whynot_ranks.setdefault(i, 0)
    return (dict(sorted(why_ranks.items())), dict(sorted(whynot_ranks.items())))
