"""Optimal forward search over STRIPS states.

A single breadth-first sweep serves recognition costs, optimal plans and
counterfactual-action plans.  Every action costs 1, so an optimal plan is a
shortest one.  States and goals are int masks (the ``strips`` module
docstring); the sweep works on the domain's dense state ids, reads
successors from the domain's memoized table, and goes layer by layer,
recording each state's first discovery as ``id -> parent id``; it reads a
state's bits only for goal tests.  It stops once every goal asked for has
been reached, so one sweep prices many goals from the same state, and every
sweep on a domain shares that domain's successor table: a state expanded by
one recognition sweep is read, not expanded again, by the next sweep and by
counterfactual planning.  A row lists successor ids only, so
``optimal_plan`` names each step of its plan by re-deriving it from
``applicable_actions`` on the parent's bits.

``distance_tables`` prices every goal from every state reachable from one
state: one enumeration of that space, then one breadth-first sweep per goal
over the reversed edges, so each cost is a table lookup.  It takes a cap,
not a budget, and never raises BudgetExceeded.  The rule for when the
recognizer takes the tables instead of one sweep per observed state is
stated in the ``recognizer`` module docstring.

Among equal-length plans the lexicographically first action sequence is
returned, so downstream explanations are reproducible run to run.  This
falls out of the discovery order: successors are generated in name order and
each layer is expanded first to last, so by induction on depth every layer
is discovered in the lexicographic order of its states' first-found paths.
The first goal state dequeued therefore ends the lexicographically first
shortest plan, and its parent chain spells that plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetExceeded
from .strips import DomainDefinition, step

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class PlanningTask:
    domain: DomainDefinition
    initial: int
    goal: int


def _sweep(domain: DomainDefinition, initial: int, goals: Sequence[int],
           budget: int):
    """Breadth-first sweep from ``initial`` until every goal is reached.

    Returns (cost per goal or None if unreachable, ``id -> parent id`` map
    of first discoveries with the initial state's id mapped to None, the id
    of the state that reached the last goal or None, states dequeued).  The
    goal test and the budget count apply when a state is dequeued, so the
    sweep expands as many states as the farthest goal's single-goal search
    would.
    """
    states, rows = domain.states, domain.rows
    start = domain.state_id(initial)
    parents = {start: None}
    costs = [None] * len(goals)
    pending = list(range(len(goals)))
    layer, depth, expansions, last = [start], 0, 0, None
    while layer and pending:
        successors = []
        for sid in layer:
            expansions += 1
            if expansions > budget:
                raise BudgetExceeded(budget)
            state = states[sid]
            for i in pending:
                if goals[i] & state == goals[i]:
                    costs[i], last = depth, sid
            if last == sid:  # a goal holds here: each id is dequeued once
                pending = [i for i in pending if costs[i] is None]
                if not pending:
                    break
            for succ in rows[sid] or domain.expand(sid):
                if succ not in parents:
                    parents[succ] = sid
                    successors.append(succ)
        layer = successors
        depth += 1
    return costs, parents, last, expansions


def sweep_costs(domain: DomainDefinition, state: int, goals: Sequence[int],
                budget: int = DEFAULT_BUDGET) -> tuple:
    """``optimal_costs`` plus the sweep's size: (cost per goal, states
    discovered, states dequeued)."""
    costs, parents, _, expanded = _sweep(domain, state, goals, budget)
    return costs, len(parents), expanded


def optimal_costs(domain: DomainDefinition, state: int, goals: Sequence[int],
                  budget: int = DEFAULT_BUDGET) -> list:
    """Optimal cost from ``state`` to each goal (None if unreachable), from
    one sweep.  ``budget >= 1`` caps the states expanded; BudgetExceeded is
    raised exactly when some single-goal ``optimal_cost`` would raise it.
    """
    return sweep_costs(domain, state, goals, budget)[0]


def _reachable(domain: DomainDefinition, start: int, cap: int):
    """Ids of the states reachable from id ``start`` in breadth-first order,
    or None as soon as more than ``cap`` are found."""
    rows, found, seen = domain.rows, [start], {start}
    for sid in found:
        for succ in rows[sid] or domain.expand(sid):
            if succ not in seen:
                if len(found) == cap:
                    return None
                seen.add(succ)
                found.append(succ)
    return found


def distance_tables(domain: DomainDefinition, state: int, goals: Sequence[int],
                    cap: int = DEFAULT_BUDGET) -> Optional[list]:
    """Optimal cost to each goal from every state reachable from ``state``.

    Returns one list per goal, indexed by state id (``domain.state_id``):
    the cost, or None where the goal is unreachable.  Ids of states not
    reachable from ``state`` also read None.  Each goal's sweep starts from
    every reachable state that satisfies it.  Returns None instead once
    more than ``cap`` states are found, keeping the successor rows expanded
    so far.
    """
    found = _reachable(domain, domain.state_id(state), cap)
    if found is None:
        return None
    states, rows = domain.states, domain.rows
    predecessors = [[] for _ in states]
    for sid in found:
        for succ in rows[sid]:
            predecessors[succ].append(sid)
    tables = []
    for goal in goals:
        table = [None] * len(states)
        layer = [sid for sid in found if goal & states[sid] == goal]
        for sid in layer:
            table[sid] = 0
        depth = 0
        while layer:
            depth += 1
            discovered = []
            for sid in layer:
                for pred in predecessors[sid]:
                    if table[pred] is None:
                        table[pred] = depth
                        discovered.append(pred)
            layer = discovered
        tables.append(table)
    return tables


def optimal_cost(task: PlanningTask,
                 budget: int = DEFAULT_BUDGET) -> Optional[int]:
    """Optimal plan cost, or None if the task is unsolvable (``budget >= 1``)."""
    return optimal_costs(task.domain, task.initial, [task.goal], budget)[0]


def optimal_plan(task: PlanningTask,
                 budget: int = DEFAULT_BUDGET) -> Optional[tuple]:
    """Shortest plan for the task as a tuple of actions, empty when the goal
    already holds, or None if the task is unsolvable (``budget >= 1``).

    Ties between equal-length plans go to the lexicographically first
    action-name sequence: the parent chain of the first goal state the
    sweep dequeues (see the module docstring for why).  Successor rows hold
    no actions, so each step is re-derived: the first action in
    ``applicable_actions(parent)`` whose progression gives the child.  That
    is the action that discovered the child: the parent was expanded with
    successors in name order and only the first arrival is recorded, so
    when two actions lead to the same state the earlier name is taken.
    """
    domain = task.domain
    _, parents, state, _ = _sweep(domain, task.initial, [task.goal], budget)
    if state is None:
        return None
    states, actions = domain.states, []
    while parents[state] is not None:
        parent = parents[state]
        bits, child = states[parent], states[state]
        actions.append(next(action
                            for action in domain.applicable_actions(bits)
                            if step(bits, action) == child))
        state = parent
    return tuple(reversed(actions))
