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
counterfactual planning.  A row lists successor ids only, in the order of
``applicable_actions`` on the same state (``strips`` module docstring), so
``optimal_plan`` names each step of its plan by the child's position in the
parent's row.

A domain may know states that are hopeless for a goal: no action sequence
leads from them to a state that meets it (``drop_hopeless``; only a Sokoban
domain knows any, by its dead squares, ``sokoban`` module docstring).  Each
new layer drops, in order, its states that are hopeless for every goal
still pending; they stay discovered, so they are not tested again, but they
are never goal-tested, counted or expanded.  This changes no cost, first
hit, chain or plan.  Every ancestor of a state that can reach a pending
goal can reach it too, so it is never dropped; so the states that can
reach a pending goal keep their first discoverers and their order in every
layer, and each goal's first hit and its chain are such states.  What the
drop does change is the states dequeued, the rows filled and so the
budgets that run out: on the 40 ``sokoban_deep`` benchmark boards it cuts
the dequeues of recognition by 58%.  Grids and raw STRIPS listings drop
nothing.

Each layer is goal-tested, first state to last, before any of it is
expanded.  The budget counts states dequeued as a search that takes one
state at a time would: when the last pending goal is first met at position
p of a layer, the count is the states of the earlier layers plus p + 1, the
sweep stops there, and BudgetExceeded is raised if that count is over the
budget; otherwise the whole layer is counted, and checked against the
budget, before it is expanded.  So the states of the final layer are never
expanded, and a sweep asked for no goal dequeues nothing.

Across goals the budget holds one way.  A state kept for a pending goal is
kept whatever other goals are pending, so a sweep for several goals
dequeues at least as many states as the sweep for any one of them, and
raises BudgetExceeded whenever one of those would.  Where nothing is
dropped it dequeues exactly as many as the largest of them.  Where hopeless
states are dropped it may dequeue more, and so raise where none of them
would, as it also expands the states kept only for its other goals: in a
5 x 1 Sokoban corridor with the player on cell 5, a box on 3 and the goals
box-1 and box-5, the sweep for both dequeues 6 states and each one-goal
sweep 5.

``distance_tables`` prices every goal from every state reachable from one
state: one enumeration of that space, which drops the states hopeless for
every goal as a sweep does, then one breadth-first sweep per goal over the
reversed edges, so each cost is a table lookup.  It takes a cap,
not a budget, and never raises BudgetExceeded.  The rule for when the
recognizer takes the tables instead of one sweep per observed state is
stated in the ``recognizer`` module docstring.

Among equal-length plans the lexicographically first action sequence is
returned, so downstream explanations are reproducible run to run.  This
falls out of the discovery order: successors are generated in name order and
each layer is expanded first to last, so by induction on depth every layer
is discovered in the lexicographic order of its states' first-found paths.
The first goal state dequeued therefore ends the lexicographically first
shortest plan, and its parent chain spells that plan.  ``sweep`` returns
each goal's first hit with its parent map, and ``Sweep.chains`` walks every
goal's chain: ``optimal_plan`` spells its one goal's, and the recognizer
follows the chains along the observations (``recognizer`` module
docstring).
"""

from typing import NamedTuple, Optional, Sequence

from .errors import BudgetExceeded
from .strips import DomainDefinition

DEFAULT_BUDGET = 10_000_000


class PlanningTask(NamedTuple):
    domain: DomainDefinition
    initial: int
    goal: int


class Sweep(NamedTuple):
    """What one breadth-first sweep (``sweep``) found."""

    costs: list      # cost per goal, or None if unreachable
    parents: dict    # id -> parent id of first discoveries, the start -> None
    hits: list       # id of each goal's first hit, or None if unreachable
    dequeued: int    # states dequeued, as the budget counts them

    def chains(self) -> list:
        """Each goal's first-hit parent chain: the ids from the hit back to,
        but not including, the sweep's start, goal end first; empty for a
        goal met at depth 0 or never met."""
        parents, chains = self.parents, []
        for sid in self.hits:
            chain = []
            while sid is not None and parents[sid] is not None:
                chain.append(sid)
                sid = parents[sid]
            chains.append(chain)
        return chains


def sweep(domain: DomainDefinition, initial: int, goals: Sequence[int],
          budget: int = DEFAULT_BUDGET) -> Sweep:
    """Breadth-first sweep from ``initial`` until every goal is met (the
    goal test and budget count are in the module docstring).

    A goal's first hit is the first state of its layer that satisfies it.
    ``parents`` holds the start and the states of the layers expanded, so it
    holds every first hit's parent chain; its size is the states
    discovered, the dropped hopeless ones included.
    """
    states, rows, expand = domain.states, domain.rows, domain.expand
    start = domain.state_id(initial)
    parents = {start: None}
    costs, hits = [None] * len(goals), [None] * len(goals)
    pending, wanted = list(range(len(goals))), goals
    layer, depth, expansions = [start], 0, 0
    while layer and pending:
        unmet, last = [], -1
        for i in pending:
            goal = goals[i]
            for p, sid in enumerate(layer):
                if goal & states[sid] == goal:
                    costs[i], hits[i], last = depth, sid, max(last, p)
                    break
            else:
                unmet.append(i)
        if not unmet:
            expansions += last + 1
            if expansions > budget:
                raise BudgetExceeded(budget)
            return Sweep(costs, parents, hits, expansions)
        if len(unmet) < len(pending):
            wanted = [goals[i] for i in unmet]
        pending = unmet
        expansions += len(layer)
        if expansions > budget:
            raise BudgetExceeded(budget)
        successors = []
        for sid in layer:
            for succ in rows[sid] or expand(sid):
                if succ not in parents:
                    parents[succ] = sid
                    successors.append(succ)
        layer = domain.drop_hopeless(successors, wanted)
        depth += 1
    return Sweep(costs, parents, hits, expansions)


def sweep_costs(domain: DomainDefinition, state: int, goals: Sequence[int],
                budget: int = DEFAULT_BUDGET) -> tuple:
    """``optimal_costs`` plus the sweep's size: (cost per goal, states
    discovered, states dequeued)."""
    found = sweep(domain, state, goals, budget)
    return found.costs, len(found.parents), found.dequeued


def optimal_costs(domain: DomainDefinition, state: int, goals: Sequence[int],
                  budget: int = DEFAULT_BUDGET) -> list:
    """Optimal cost from ``state`` to each goal (None if unreachable), from
    one sweep.  ``budget >= 1`` caps the states expanded; BudgetExceeded is
    raised whenever some single-goal ``optimal_cost`` would raise it, and on
    a domain that drops hopeless states it may also be raised when none
    would (module docstring).
    """
    return sweep_costs(domain, state, goals, budget)[0]


def _reachable(domain: DomainDefinition, start: int, goals: Sequence[int],
               cap: int):
    """Ids of the states reachable from id ``start``, in breadth-first
    order, that are not hopeless for every goal of ``goals``, ``start``
    first; or None as soon as one state's row takes the count past
    ``cap``.  As in ``sweep``, a hopeless state is dropped when it is
    discovered, so it is never expanded."""
    rows, found, seen = domain.rows, [start], {start}
    for sid in found:
        successors = []
        for succ in rows[sid] or domain.expand(sid):
            if succ not in seen:
                seen.add(succ)
                successors.append(succ)
        found += domain.drop_hopeless(successors, goals)
        if len(found) > cap:
            return None
    return found


def distance_tables(domain: DomainDefinition, state: int, goals: Sequence[int],
                    cap: int = DEFAULT_BUDGET) -> Optional[list]:
    """Optimal cost to each goal from every state reachable from ``state``.

    Returns one list per goal, indexed by state id (``domain.state_id``):
    the cost, or None where the goal is unreachable.  Ids of states not
    reachable from ``state`` also read None.  A state hopeless for every
    goal reads None and is not expanded, so a state reachable only through
    such states is interned only after the tables are built: its id lies
    past their end, and reads as None.  Each goal's sweep starts from every
    kept state that satisfies it.  Returns None instead once more than
    ``cap`` states are kept, keeping the successor rows expanded so far.
    """
    found = _reachable(domain, domain.state_id(state), goals, cap)
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
    no actions, so each step is named by position:
    ``applicable_actions(parent)[rows[parent].index(child)]``, as the row
    and that list hold the same actions in the same order.  ``index`` takes
    the first position that leads to the child, which is the action that
    discovered it: the parent was expanded with successors in name order
    and only the first arrival is recorded, so when two actions lead to the
    same state the earlier name is taken.
    """
    domain = task.domain
    found = sweep(domain, task.initial, [task.goal], budget)
    if found.costs[0] is None:
        return None
    states, rows = domain.states, domain.rows
    path = [domain.state_id(task.initial), *reversed(found.chains()[0])]
    return tuple(domain.applicable_actions(states[parent])[
        rows[parent].index(child)] for parent, child in zip(path, path[1:]))
