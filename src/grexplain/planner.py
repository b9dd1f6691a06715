"""Optimal forward search over STRIPS states.

A single planner serves optimal plans, recognition suffix plans, and
counterfactual-action plans.  Every action costs 1, so the search is a plain
breadth-first search and an optimal plan is a shortest one.  Among
equal-length plans the lexicographically-first action sequence is returned,
so downstream explanations are reproducible run to run.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .errors import BudgetExceeded, MalformedSpec
from .strips import DomainDefinition, GroundAction, Plan, State, apply

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
        if not self.domain.contains_facts(self.goal):
            raise MalformedSpec(
                f"goal facts outside the domain universe: "
                f"{sorted(set(self.goal) - set(self.domain.facts))}"
            )


@dataclass(frozen=True)
class PlanResult:
    status: Status
    plan: Plan = field(default_factory=Plan)
    cost: Optional[int] = None

    @property
    def solved(self) -> bool:
        return self.status is Status.SOLVED


def _settle(task: PlanningTask, budget: int, stop_at_goal: bool):
    """Breadth-first sweep; returns (state -> depth, optimal goal cost).

    Depths are recorded when a state is generated; the goal test and the
    budget count apply when it is expanded.  With ``stop_at_goal`` the sweep
    ends at the first goal state expanded (enough to read off the optimal
    cost).  Otherwise it expands every state up to the optimal cost, which is
    what the lexicographic plan reconstruction needs.
    """
    goal = task.goal
    depth = {task.initial: 0}
    queue = deque([task.initial])
    goal_cost = None
    expansions = 0

    while queue:
        state = queue.popleft()
        g = depth[state]
        if goal_cost is not None and g > goal_cost:
            break
        expansions += 1
        if expansions > budget:
            raise BudgetExceeded(budget)
        if goal_cost is None and goal <= state:
            goal_cost = g
            if stop_at_goal:
                break
        for action in task.domain.applicable_actions(state):
            succ = apply(state, action)
            if succ not in depth:
                depth[succ] = g + 1
                queue.append(succ)

    return depth, goal_cost


def optimal_cost(task: PlanningTask,
                 budget: int = DEFAULT_BUDGET) -> Optional[int]:
    """Optimal plan cost, or None if the task is unsolvable.

    Cost-only fast path: stops at the first goal state instead of
    reconstructing a plan.
    """
    if task.goal <= task.initial:
        return 0
    _, goal_cost = _settle(task, budget, stop_at_goal=True)
    return goal_cost


def optimal_plan(task: PlanningTask,
                 budget: int = DEFAULT_BUDGET) -> PlanResult:
    """Shortest plan for the task, or an Unsolvable result.

    Ties between equal-length plans are broken toward the lexicographically
    first action-name sequence: the optimal-path subgraph is marked by a
    backward sweep from the nearest goal states, then the plan is read off
    by always taking the alphabetically first optimality-preserving action.
    """
    if task.goal <= task.initial:
        return PlanResult(Status.SOLVED, Plan(), 0)

    depth, goal_cost = _settle(task, budget, stop_at_goal=False)
    if goal_cost is None:
        return PlanResult(Status.UNSOLVABLE)
    # States generated past the goal layer are never on an optimal path;
    # dropping them keeps them from living on through the reconstruction.
    depth = {s: g for s, g in depth.items() if g <= goal_cost}

    # Forward edges between consecutive BFS layers up to the goal layer.
    reverse = {}
    edges = {}
    for state, g in depth.items():
        if g >= goal_cost:
            continue
        for action in task.domain.applicable_actions(state):
            succ = apply(state, action)
            if depth.get(succ) == g + 1:
                edges.setdefault(state, []).append((action, succ))
                reverse.setdefault(succ, []).append(state)

    marked = set()
    frontier = [s for s, g in depth.items() if g == goal_cost and task.goal <= s]
    marked.update(frontier)
    while frontier:
        nxt = []
        for state in frontier:
            for pred in reverse.get(state, ()):
                if pred not in marked:
                    marked.add(pred)
                    nxt.append(pred)
        frontier = nxt

    actions = []
    state = task.initial
    while not task.goal <= state:
        # edges lists follow applicable_actions order, i.e. sorted by name
        step = next((a, s) for a, s in edges[state] if s in marked)
        actions.append(step[0])
        state = step[1]
    return PlanResult(Status.SOLVED, Plan(tuple(actions)), len(actions))


def first_action(result: PlanResult) -> Optional[GroundAction]:
    """First step of a solved, nonempty plan; None otherwise."""
    if result.solved and len(result.plan) > 0:
        return result.plan.actions[0]
    return None
