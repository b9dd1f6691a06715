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
kept whatever other goals are pending, so a sweep for a set of goals
dequeues at least as many states as the sweep for any subset of them, and
raises BudgetExceeded whenever one of those would.  Where nothing is
dropped it dequeues exactly as many as the largest one-goal sweep.  Where
hopeless states are dropped it may dequeue more, and so raise where none of
them would, as it also expands the states kept only for its other goals: in
a 5 x 1 Sokoban corridor with the player on cell 5, a box on 3 and the
goals box-1 and box-5, the sweep for both dequeues 6 states and each
one-goal sweep 5.

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

``optimal_plan`` first asks the domain for the path
(``DomainDefinition.shortest_path``) and sweeps only where the domain
returns None, as every domain but a grid does.  A grid floods the board
from the start one whole-board layer at a time (``grids.GridDomain``).
The flood's layers are the sweep's, so it knows the sweep's count up to
the goal's place in its layer.  Let B be the cells of the layers before
the goal's and L the cells of the goal's layer.  B + 1 over the budget
raises BudgetExceeded, as the sweep would; B + L within it cannot raise;
otherwise the grid returns None and the sweep decides.  An unreachable
goal raises exactly where the cells the flood reached are over the
budget.  The path is then walked down the layers flooded back from the
goal, each step the first successor in name order one move nearer it,
which spells the same lexicographically first shortest plan.
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


def optimal_costs(domain: DomainDefinition, state: int, goals: Sequence[int],
                  budget: int = DEFAULT_BUDGET) -> list:
    """Optimal cost from ``state`` to each goal (None if unreachable), from
    one sweep, under ``budget >= 1`` as the module docstring counts it."""
    return sweep(domain, state, goals, budget).costs


def optimal_cost(task: PlanningTask,
                 budget: int = DEFAULT_BUDGET) -> Optional[int]:
    """Optimal plan cost, or None if the task is unsolvable (``budget >= 1``)."""
    return optimal_costs(task.domain, task.initial, [task.goal], budget)[0]


def optimal_plan(task: PlanningTask,
                 budget: int = DEFAULT_BUDGET) -> Optional[tuple]:
    """Shortest plan for the task as a tuple of actions, empty when the goal
    already holds, or None if the task is unsolvable (``budget >= 1``).

    Ties between equal-length plans go to the lexicographically first
    action-name sequence: the domain's ``shortest_path``, or else the
    parent chain of the first goal state the sweep dequeues (see the
    module docstring for why).  Successor rows hold no actions, so each
    step is named by position:
    ``applicable_actions(parent)[rows[parent].index(child)]``, as the row
    and that list hold the same actions in the same order.  ``index`` takes
    the first position that leads to the child, which is the action that
    discovered it: the parent was expanded with successors in name order
    and only the first arrival is recorded, so when two actions lead to the
    same state the earlier name is taken.
    """
    domain = task.domain
    path = domain.shortest_path(task.initial, task.goal, budget)
    if path is None:
        found = sweep(domain, task.initial, [task.goal], budget)
        if found.costs[0] is None:
            return None
        path = [domain.state_id(task.initial), *reversed(found.chains()[0])]
    elif not path:
        return None
    states, rows = domain.states, domain.rows
    return tuple(domain.applicable_actions(states[parent])[
        rows[parent].index(child)] for parent, child in zip(path, path[1:]))
