"""Online goal recognition by plan mirroring.

Each goal hypothesis is scored after every observation prefix by the ratio

    optimal cost(initial -> goal) / (prefix cost + optimal cost(state -> goal))

so a goal the observations keep optimal scores 1 and goals the agent walks
away from decay toward 0.  Every action costs 1, so the prefix cost after i
observations is i and each cost is a plan length.  One planner sweep per
state prices every goal at once: one from the initial state over all goals,
then one per observed state over the goals reachable from the initial state.  Scores are normalized into
a posterior over the goal set; unreachable goals get probability 0.  Goals
within ``DEFAULT_TIE_TOLERANCE`` of the final maximum are co-predicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import AllGoalsUnsolvable, InvalidObservationChain, MalformedSpec
from .planner import DEFAULT_BUDGET, optimal_costs
from .strips import DomainDefinition, GroundAction, State, applicable, apply

DEFAULT_TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Observation:
    """One observed step: the action taken and the fact-state it produced."""

    action: GroundAction
    resulting_state: State


@dataclass(frozen=True)
class GrProblem:
    """A goal-recognition problem: domain, initial state, goal hypotheses,
    and the observed action/state sequence."""

    domain: DomainDefinition
    initial: State
    goals: tuple
    observations: tuple = ()
    goal_names: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "goals", tuple(frozenset(g) for g in self.goals))
        object.__setattr__(self, "observations", tuple(self.observations))
        if not self.goals:
            raise MalformedSpec("a recognition problem needs at least one goal")
        names = tuple(self.goal_names) or tuple(
            f"g{i + 1}" for i in range(len(self.goals)))
        if len(names) != len(self.goals):
            raise MalformedSpec("goal_names must match the number of goals")
        object.__setattr__(self, "goal_names", names)
        validate_observations(self.domain, self.initial, self.observations)

    def state_before(self, index: int) -> State:
        """The fact-state immediately before 1-based observation ``index``."""
        if index < 1 or index > len(self.observations):
            raise IndexError(f"observation index {index} out of range")
        if index == 1:
            return self.initial
        return self.observations[index - 2].resulting_state

    def goal_label(self, goal_index: int) -> str:
        return self.goal_names[goal_index]


def validate_observations(domain: DomainDefinition, initial: State,
                          observations: Sequence[Observation]) -> None:
    """Check an observation chain progresses validly from the initial state."""
    state = initial
    for i, obs in enumerate(observations, start=1):
        if not domain.has_action(obs.action.name):
            raise InvalidObservationChain(i, f"unknown action {obs.action.name}")
        if not applicable(state, obs.action):
            raise InvalidObservationChain(
                i, f"action {obs.action.name} is not applicable")
        state = apply(state, obs.action)
        if state != obs.resulting_state:
            raise InvalidObservationChain(
                i, f"recorded state does not match applying {obs.action.name}")


@dataclass(frozen=True)
class PosteriorTrace:
    """Per-prefix posterior distributions plus the predicted/counterfactual
    goal split taken from the final prefix."""

    prior: tuple
    per_prefix: tuple
    predicted: frozenset
    counterfactual: frozenset

    @property
    def final(self) -> tuple:
        return self.per_prefix[-1] if self.per_prefix else self.prior

    @property
    def observation_count(self) -> int:
        return len(self.per_prefix)


def _normalize(scores, prefix: int) -> tuple:
    total = sum(scores)
    if total == 0:
        raise AllGoalsUnsolvable(prefix)
    return tuple(s / total for s in scores)


def mirror_posteriors(problem: GrProblem, priors: Optional[Sequence[float]] = None,
                      budget: int = DEFAULT_BUDGET) -> PosteriorTrace:
    """Run the mirroring recognizer over the full observation sequence.

    ``priors`` optionally weights goals before normalization (defaults to
    uniform, in which case the weighting step is skipped entirely so exact
    geometric ties stay exact).
    """
    if priors is not None and len(priors) != len(problem.goals):
        raise MalformedSpec("priors must assign one weight per goal")

    base_costs = optimal_costs(problem.domain, problem.initial, problem.goals,
                               budget)
    reachable = [j for j, c in enumerate(base_costs) if c is not None]
    reachable_goals = [problem.goals[j] for j in reachable]

    def distribution(scores, prefix):
        if priors is not None:
            scores = [p * s for p, s in zip(priors, scores)]
        return _normalize(scores, prefix)

    prior_scores = [0.0 if c is None else 1.0 for c in base_costs]
    prior_dist = distribution(prior_scores, 0)

    per_prefix = []
    for i, obs in enumerate(problem.observations, start=1):
        suffixes = optimal_costs(problem.domain, obs.resulting_state,
                                 reachable_goals, budget)
        scores = [0.0] * len(problem.goals)
        for j, suffix in zip(reachable, suffixes):
            if suffix is not None:
                scores[j] = base_costs[j] / (i + suffix)
        per_prefix.append(distribution(scores, i))

    final = per_prefix[-1] if per_prefix else prior_dist
    predicted, counterfactual = split_goals(final)
    return PosteriorTrace(
        prior=prior_dist,
        per_prefix=tuple(per_prefix),
        predicted=predicted,
        counterfactual=counterfactual,
    )


def split_goals(distribution):
    """Split goals into (predicted, counterfactual) index sets.

    All goals within ``DEFAULT_TIE_TOLERANCE`` of the distribution's maximum
    are co-predicted; exact geometric ties must land in the same set.
    """
    top = max(distribution)
    predicted = frozenset(i for i, p in enumerate(distribution)
                          if p >= top - DEFAULT_TIE_TOLERANCE)
    counterfactual = frozenset(range(len(distribution))) - predicted
    return predicted, counterfactual
