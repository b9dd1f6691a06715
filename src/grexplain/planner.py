"""Optimal forward search over STRIPS states.

A single breadth-first sweep serves recognition costs, optimal plans and
counterfactual-action plans.  Every action costs 1, so an optimal plan is a
shortest one.  The sweep encodes the initial state and the goals as ints
once (``DomainDefinition.encode``), reads successors from the domain's
memoized table, and goes layer by layer, recording each state's first
discovery as ``state -> parent``.  It stops once every goal asked for has
been reached, so one sweep prices many goals from the same state, and every
sweep on a domain shares that domain's successor table: a state expanded by
one recognition sweep is read, not expanded again, by the next sweep and by
counterfactual planning.

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

from .errors import BudgetExceeded
from .strips import DomainDefinition, GroundAction, Plan, State

DEFAULT_BUDGET = 10_000_000


class Status(enum.Enum):
    SOLVED = "solved"
    UNSOLVABLE = "unsolvable"


@dataclass(frozen=True)
class PlanningTask:
    domain: DomainDefinition
    initial: State
    goal: frozenset

    def __post_init__(self):
        object.__setattr__(self, "goal", frozenset(self.goal))
        self.domain.encode(self.goal)  # MalformedSpec on undeclared facts


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

    Returns (cost per goal or None if unreachable, ``state -> parent`` map
    of first discoveries over state ints with the initial state mapped to
    None, the state int that reached the last goal or None).  The goal test
    and the budget count apply when a state is dequeued, so the sweep
    expands as many states as the farthest goal's single-goal search would.
    """
    start = domain.encode(initial)
    targets = [domain.encode(g) for g in goals]
    parents = {start: None}
    costs = [None] * len(goals)
    pending = list(range(len(goals)))
    layer, depth, expansions, last = [start], 0, 0, None
    while layer and pending:
        successors = []
        for state in layer:
            expansions += 1
            if expansions > budget:
                raise BudgetExceeded(budget)
            for i in [i for i in pending if targets[i] & state == targets[i]]:
                costs[i], last = depth, state
                pending.remove(i)
            if not pending:
                break
            for _, succ in domain.successors(state):
                if succ not in parents:
                    parents[succ] = state
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
    return _sweep(domain, state, [frozenset(g) for g in goals], budget)[0]


def optimal_cost(task: PlanningTask,
                 budget: int = DEFAULT_BUDGET) -> Optional[int]:
    """Optimal plan cost, or None if the task is unsolvable (``budget >= 1``)."""
    return optimal_costs(task.domain, task.initial, [task.goal], budget)[0]


def optimal_plan(task: PlanningTask,
                 budget: int = DEFAULT_BUDGET) -> PlanResult:
    """Shortest plan for the task, or an Unsolvable result (``budget >= 1``).

    Ties between equal-length plans go to the lexicographically first
    action-name sequence: the parent chain of the first goal state the
    sweep dequeues (see the module docstring for why).  Each step is the
    first action in ``successors(parent)`` that yields the child.  That is
    the action that discovered the child: the parent was expanded with
    successors in name order and only the first arrival is recorded, so
    when two actions lead to the same state the earlier name is taken.
    """
    domain = task.domain
    _, parents, state = _sweep(domain, task.initial, [task.goal], budget)
    if state is None:
        return PlanResult(Status.UNSOLVABLE)
    actions = []
    while parents[state] is not None:
        parent = parents[state]
        actions.append(next(action for action, succ in domain.successors(parent)
                            if succ == state))
        state = parent
    actions.reverse()
    return PlanResult(Status.SOLVED, Plan(tuple(actions)), len(actions))


def first_action(result: PlanResult) -> Optional[GroundAction]:
    """First step of a solved, nonempty plan; None otherwise."""
    if result.solved and len(result.plan) > 0:
        return result.plan.actions[0]
    return None
