"""Shared fixtures: bundled scenario problems and small derived examples."""

import random
from dataclasses import dataclass
from typing import Optional

import pytest

from grexplain import (DomainDefinition, GridSpec, GroundAction,
                       bundled_scenario_path, compile_grid, load_scenario)
from grexplain.recognizer import GrProblem, Observation


@pytest.fixture(scope="session")
def nav_problem():
    return load_scenario(bundled_scenario_path("nav_crossroads"))


@pytest.fixture(scope="session")
def sokoban_problem():
    return load_scenario(bundled_scenario_path("sokoban_pairs"))


def strips_domain(facts, rows, one_hot=0):
    """A domain over ``facts`` whose actions are given as (name, pre, add,
    delete) rows of fact names, turned into masks by ``encode``."""
    universe = DomainDefinition(facts, ())
    return DomainDefinition(facts, [
        GroundAction(name, *map(universe.encode, fact_sets))
        for name, *fact_sets in rows], one_hot)


def applicable(domain, state, action) -> bool:
    """Applicability oracle on fact sets: the action's decoded
    preconditions all hold in ``state``."""
    return domain.decode(action.preconditions) <= state


def apply(domain, state, action):
    """Progression oracle on fact sets: (state \\ deletes) | adds, with the
    action's effects decoded from its masks."""
    return ((state - domain.decode(action.delete_effects))
            | domain.decode(action.add_effects))


def bfs_order(domain, initial):
    """Breadth-first search oracle on fact sets: (state, depth) for every
    state reachable from the fact set ``initial``, in the order a search
    dequeues them when it tries each state's actions in name order with
    the ``applicable`` and ``apply`` oracles and keeps first discoveries
    only."""
    actions = sorted(domain.actions, key=lambda a: a.name)
    order, seen = [(initial, 0)], {initial}
    for state, depth in order:
        for action in actions:
            if applicable(domain, state, action):
                succ = apply(domain, state, action)
                if succ not in seen:
                    seen.add(succ)
                    order.append((succ, depth + 1))
    return order


def walk(domain, initial, names):
    """Build an observation chain from action names, starting at the state
    int ``initial`` and stepping its decoded fact set with the ``apply``
    oracle."""
    state = domain.decode(initial)
    out = []
    for name in names:
        action = domain.action(name)
        state = apply(domain, state, action)
        out.append(Observation(action, domain.encode(state)))
    return tuple(out)


@pytest.fixture()
def tiny_grid_problem():
    # 3x3 board, start bottom-left corner (cell 7), goals top-left and
    # top-right; one observed move east.
    domain, initial, goals = compile_grid(GridSpec(3, 3, frozenset(), 7, (1, 3)))
    obs = walk(domain, initial, ["move-right-7-8"])
    return GrProblem(domain, initial, tuple(goals), obs)


def random_grid_spec(rng: random.Random, max_side=8, blocks=0.2):
    width = rng.randint(2, max_side)
    height = rng.randint(2, max_side)
    cells = list(range(1, width * height + 1))
    blocked = {c for c in cells if rng.random() < blocks}
    free = [c for c in cells if c not in blocked]
    if len(free) < 3:
        return random_grid_spec(rng, max_side, blocks)
    start, goal = rng.sample(free, 2)
    return GridSpec(width, height, frozenset(blocked), start, (goal,))


def bfs_grid_distance(spec: GridSpec, src: int, dst: int):
    """Independent shortest-path oracle on the cell graph (no STRIPS)."""
    from collections import deque

    if src == dst:
        return 0
    seen = {src}
    queue = deque([(src, 0)])
    while queue:
        cell, dist = queue.popleft()
        row, col = divmod(cell - 1, spec.width)
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            r, c = row + dr, col + dc
            if not (0 <= r < spec.height and 0 <= c < spec.width):
                continue
            nbr = r * spec.width + c + 1
            if nbr in spec.blocked or nbr in seen:
                continue
            if nbr == dst:
                return dist + 1
            seen.add(nbr)
            queue.append((nbr, dist + 1))
    return None


@dataclass(frozen=True)
class PlanCheck:
    """Result of validating a plan: truthy iff valid, with a failure reason."""

    ok: bool
    reason: Optional[str] = None
    failed_at: Optional[int] = None  # 0-based index of the first failing step

    def __bool__(self):
        return self.ok


def validate_plan(domain, initial, goal, plan) -> PlanCheck:
    """Plan oracle: check that ``plan`` (a sequence of actions) is executable
    from the state int ``initial`` in ``domain`` and reaches the goal mask
    ``goal``, replaying it on decoded fact sets with the ``apply`` oracle
    rather than ``strips.step`` or the successor table.  Invalid plans are
    reported, not raised: the result carries a reason code and the index of
    the first failing step."""
    state, goal = domain.decode(initial), domain.decode(goal)
    for i, action in enumerate(plan):
        if not domain.has_action(action.name):
            return PlanCheck(False, f"unknown-action:{action.name}", i)
        if not applicable(domain, state, action):
            return PlanCheck(False, f"not-applicable:{action.name}", i)
        state = apply(domain, state, action)
    if not goal <= state:
        return PlanCheck(False, "goal-not-reached", len(plan))
    return PlanCheck(True)
