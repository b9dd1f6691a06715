"""Online goal recognition by plan mirroring.

Each goal hypothesis is scored after every observation prefix by the ratio

    optimal cost(initial -> goal) / (prefix cost + optimal cost(state -> goal))

so a goal the observations keep optimal scores 1 and goals the agent walks
away from decay toward 0.  Every action costs 1, so the prefix cost after i
observations is i and each cost is a plan length.  One planner sweep from
the initial state prices every goal at once.  The suffix costs of the n
observed states then come from one of two paths, chosen per problem from
counts the first sweep already has: E0, the states it dequeued, and S0,
the states it discovered.

* Sweeps: one per observed state over the goals reachable from the initial
  state.  Each dequeues about E0 states.
* Tables (``planner.distance_tables``): enumerate the R states reachable
  from the initial state, then one backward sweep per reachable goal, so
  about |G| + 2 passes over R states.  R is at least S0, so the tables are
  tried only when (|G| + 2) * S0 <= n * E0, and enumerated under a cap of
  min(budget, n * E0 // (|G| + 2)) states; past the cap the sweeps run
  after all, over the successor rows the enumeration already expanded.

Both paths give the same costs.  BudgetExceeded is raised exactly where
the n + 1 sweeps raise it: the first sweep is common to both, and the
tables are used only when every reachable state fits in the budget, so
that no sweep could have raised.  Scores are normalized into a posterior
over the goal set; unreachable goals get probability 0.  Goals within
``DEFAULT_TIE_TOLERANCE`` of the final maximum are co-predicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import AllGoalsUnsolvable, InvalidObservationChain, MalformedSpec
from .grids import GridSpec
from .planner import (DEFAULT_BUDGET, distance_tables, optimal_costs,
                      sweep_costs)
from .sokoban import SokobanSpec
from .strips import DomainDefinition, GroundAction, step

DEFAULT_TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Observation:
    """One observed step: the action taken and the state int it produced."""

    action: GroundAction
    resulting_state: int


@dataclass(frozen=True)
class GrProblem:
    """A goal-recognition problem: domain, initial state, goal hypotheses,
    and the observed action/state sequence.

    States and goals are int masks over ``domain.facts``; a bit past them
    is a MalformedSpec naming the initial state or the goal.

    ``board`` is the ``GridSpec`` or ``SokobanSpec`` the domain was compiled
    from, or None for any other domain; only rendering reads it (board
    phrases and the ASCII map).  ``name`` is the scenario's name.  Neither
    affects recognition or the explanations.
    """

    domain: DomainDefinition
    initial: int
    goals: tuple
    observations: tuple = ()
    goal_names: tuple = ()
    board: Optional[Union[GridSpec, SokobanSpec]] = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "goals", tuple(self.goals))
        object.__setattr__(self, "observations", tuple(self.observations))
        names = goal_labels(self.goal_names, len(self.goals))
        object.__setattr__(self, "goal_names", names)
        declared = len(self.domain.facts)
        labels = ["initial state", *(f"goal {n}" for n in names)]
        for label, mask in zip(labels, (self.initial, *self.goals)):
            if mask >> declared:
                raise MalformedSpec(f"{label}: a mask bit lies outside the "
                                    f"{declared} declared facts")
        validate_observations(self.domain, self.initial, self.observations)

    def state_before(self, index: int) -> int:
        """The state immediately before 1-based observation ``index``."""
        if index < 1 or index > len(self.observations):
            raise IndexError(f"observation index {index} out of range")
        if index == 1:
            return self.initial
        return self.observations[index - 2].resulting_state


def goal_labels(goal_names: Sequence[str], count: int) -> tuple:
    """The names of ``count`` goals: ``goal_names``, or g1, g2, ... when it
    is empty; MalformedSpec unless they name the goals one to one."""
    if not count:
        raise MalformedSpec("a recognition problem needs at least one goal")
    names = tuple(goal_names) or tuple(f"g{i + 1}" for i in range(count))
    if len(names) != count:
        raise MalformedSpec("goal_names must match the number of goals")
    if len(set(names)) != len(names):
        raise MalformedSpec(f"goal_names must be distinct: {list(names)}")
    return names


def validate_observations(domain: DomainDefinition, initial: int,
                          observations: Sequence[Observation]) -> None:
    """Check an observation chain progresses validly from the initial state."""
    state = initial
    for i, obs in enumerate(observations, start=1):
        if not domain.has_action(obs.action.name):
            raise InvalidObservationChain(i, f"unknown action {obs.action.name}")
        state = step(state, obs.action)
        if state is None:
            raise InvalidObservationChain(
                i, f"action {obs.action.name} is not applicable")
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

    domain, goals = problem.domain, problem.goals
    base_costs, discovered, expanded = sweep_costs(domain, problem.initial,
                                                   goals, budget)
    reachable = [j for j, c in enumerate(base_costs) if c is not None]
    reachable_goals = [goals[j] for j in reachable]

    def distribution(scores, prefix):
        if priors is not None:
            scores = [p * s for p, s in zip(priors, scores)]
        return _normalize(scores, prefix)

    prior_scores = [0.0 if c is None else 1.0 for c in base_costs]
    prior_dist = distribution(prior_scores, 0)

    # The selection rule and its cap (module docstring).
    n, passes = len(problem.observations), len(goals) + 2
    tables = None
    if passes * discovered <= n * expanded:
        tables = distance_tables(domain, problem.initial, reachable_goals,
                                 min(budget, n * expanded // passes))

    per_prefix = []
    for i, obs in enumerate(problem.observations, start=1):
        if tables is None:
            suffixes = optimal_costs(domain, obs.resulting_state,
                                     reachable_goals, budget)
        else:
            sid = domain.state_id(obs.resulting_state)
            suffixes = [table[sid] for table in tables]
        scores = [0.0] * len(goals)
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
