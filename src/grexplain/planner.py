"""Optimal forward search over STRIPS states.

A single breadth-first sweep serves recognition costs, optimal plans and
counterfactual-action plans.  Every action costs 1, so an optimal plan is a
shortest one.  The sweep goes layer by layer, records each state's first
discovery as ``state -> (parent, action)``, and stops once every goal asked
for has been reached, so one sweep prices many goals from the same state.

Among equal-length plans the lexicographically first action sequence is
returned, so downstream explanations are reproducible run to run.  This
falls out of the discovery order: successors are generated in name order and
each layer is expanded first to last, so by induction on depth every layer
is discovered in the lexicographic order of its states' first-found paths.
The first goal state dequeued therefore ends the lexicographically first
shortest plan, and its parent chain spells that plan.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import BudgetExceeded, MalformedSpec
from .strips import DomainDefinition, GroundAction, Plan, State, apply

DEFAULT_BUDGET = 10_000_000


class Status(enum.Enum):
    SOLVED = "solved"
    UNSOLVABLE = "unsolvable"


def _check_goal(domain: DomainDefinition, goal: frozenset) -> None:
    if not domain.contains_facts(goal):
        raise MalformedSpec(
            f"goal facts outside the domain universe: "
            f"{sorted(set(goal) - set(domain.facts))}"
        )


@dataclass(frozen=True)
class PlanningTask:
    domain: DomainDefinition
    initial: State
    goal: frozenset

    def __post_init__(self):
        object.__setattr__(self, "goal", frozenset(self.goal))
        _check_goal(self.domain, self.goal)


@dataclass(frozen=True)
class PlanResult:
    status: Status
    plan: Plan = field(default_factory=Plan)
    cost: Optional[int] = None

    @property
    def solved(self) -> bool:
        return self.status is Status.SOLVED


def _sweep(domain: DomainDefinition, initial: State, goals: Sequence[frozenset],
           budget: int):
    """Breadth-first sweep from ``initial`` until every goal is reached.

    Returns (cost per goal or None if unreachable, ``state -> (parent,
    action)`` map of first discoveries with the initial state mapped to None,
    the state that reached the last goal or None).  The goal test and the
    budget count apply when a state is dequeued, so the sweep expands as many
    states as the farthest goal's single-goal search would.
    """
    parents = {initial: None}
    costs = [None] * len(goals)
    pending = list(range(len(goals)))
    layer, depth, expansions, last = [initial], 0, 0, None
    while layer and pending:
        successors = []
        for state in layer:
            expansions += 1
            if expansions > budget:
                raise BudgetExceeded(budget)
            for i in [i for i in pending if goals[i] <= state]:
                costs[i], last = depth, state
                pending.remove(i)
            if not pending:
                break
            for action in domain.applicable_actions(state):
                succ = apply(state, action)
                if succ not in parents:
                    parents[succ] = (state, action)
                    successors.append(succ)
        layer = successors
        depth += 1
    return costs, parents, last


def optimal_costs(domain: DomainDefinition, state: State,
                  goals: Sequence[frozenset],
                  budget: int = DEFAULT_BUDGET) -> list:
    """Optimal cost from ``state`` to each goal (None if unreachable), from
    one sweep.  ``budget >= 1`` caps the states expanded; BudgetExceeded is
    raised exactly when some single-goal ``optimal_cost`` would raise it.
    """
    goals = [frozenset(g) for g in goals]
    for goal in goals:
        _check_goal(domain, goal)
    return _sweep(domain, state, goals, budget)[0]


def optimal_cost(task: PlanningTask,
                 budget: int = DEFAULT_BUDGET) -> Optional[int]:
    """Optimal plan cost, or None if the task is unsolvable (``budget >= 1``)."""
    return optimal_costs(task.domain, task.initial, [task.goal], budget)[0]


def optimal_plan(task: PlanningTask,
                 budget: int = DEFAULT_BUDGET) -> PlanResult:
    """Shortest plan for the task, or an Unsolvable result (``budget >= 1``).

    Ties between equal-length plans go to the lexicographically first
    action-name sequence: the parent chain of the first goal state the
    sweep dequeues (see the module docstring for why).
    """
    _, parents, state = _sweep(task.domain, task.initial, [task.goal], budget)
    if state is None:
        return PlanResult(Status.UNSOLVABLE)
    actions = []
    while parents[state] is not None:
        state, action = parents[state]
        actions.append(action)
    actions.reverse()
    return PlanResult(Status.SOLVED, Plan(tuple(actions)), len(actions))


def first_action(result: PlanResult) -> Optional[GroundAction]:
    """First step of a solved, nonempty plan; None otherwise."""
    if result.solved and len(result.plan) > 0:
        return result.plan.actions[0]
    return None
