import random

import pytest
from hypothesis import example, given, settings, strategies as st

from grexplain import (BudgetExceeded, GridSpec, PlanningTask, Status,
                       compile_grid, first_action, optimal_cost, optimal_costs,
                       optimal_plan)
from grexplain.planner import PlanResult
from grexplain.strips import Plan, apply

from conftest import bfs_grid_distance, random_grid_spec
from grexplain.grids import grid_neighbors


def grid_task(spec):
    domain, initial, goals = compile_grid(spec)
    return PlanningTask(domain, initial, goals[0])


def test_three_by_three_matches_bfs_oracle():
    spec = GridSpec(3, 3, frozenset(), 7, (1,))
    assert bfs_grid_distance(spec, 7, 1) == 2
    assert optimal_cost(grid_task(spec)) == 2


def test_goal_in_initial_state_gives_empty_plan():
    spec = GridSpec(3, 3, frozenset(), 5, (5,))
    result = optimal_plan(grid_task(spec))
    assert result.solved and result.cost == 0 and len(result.plan) == 0
    assert optimal_cost(grid_task(spec)) == 0


def test_walled_off_goal_is_unsolvable():
    # goal cell 9 enclosed by blocks 6 and 8 on a 3x3 board
    spec = GridSpec(3, 3, frozenset({6, 8}), 1, (9,))
    result = optimal_plan(grid_task(spec))
    assert result.status is Status.UNSOLVABLE
    assert optimal_cost(grid_task(spec)) is None


def test_random_grids_agree_with_bfs_oracle():
    rng = random.Random(99)
    for _ in range(60):
        spec = random_grid_spec(rng)
        expected = bfs_grid_distance(spec, spec.start, spec.goal_cells[0])
        assert optimal_cost(grid_task(spec)) == expected


def test_large_board_at_2500_cells():
    spec = GridSpec(50, 50, frozenset(), 1, (2500,))
    assert optimal_cost(grid_task(spec)) == 98
    assert bfs_grid_distance(spec, 1, 2500) == 98


def test_repeated_runs_return_identical_plans():
    rng = random.Random(5)
    for _ in range(20):
        spec = random_grid_spec(rng, max_side=6)
        task = grid_task(spec)
        plans = [optimal_plan(task) for _ in range(3)]
        names = [[a.name for a in p.plan] for p in plans]
        assert names[0] == names[1] == names[2]


def test_tie_break_is_lexicographic_by_action_name():
    # From the centre to the bottom-right corner both down-first and
    # right-first plans are optimal; "down" sorts before "right".
    spec = GridSpec(3, 3, frozenset(), 5, (9,))
    result = optimal_plan(grid_task(spec))
    assert [a.name for a in result.plan] == ["move-down-5-8", "move-right-8-9"]


def test_lexicographic_tie_break_full_sequence():
    spec = GridSpec(4, 4, frozenset(), 1, (16,))
    result = optimal_plan(grid_task(spec))
    # every interleaving of 3 downs and 3 rights is optimal; the
    # lexicographically-first takes all downs first
    assert [a.name.split("-")[1] for a in result.plan] == ["down"] * 3 + ["right"] * 3


@st.composite
def grid_specs(draw):
    width = draw(st.integers(1, 6))
    height = draw(st.integers(1, 6))
    cells = range(1, width * height + 1)
    start = draw(st.sampled_from(cells))
    goal = draw(st.sampled_from(cells))
    blocked = draw(st.frozensets(st.sampled_from(cells)))
    return GridSpec(width, height, blocked - {start, goal}, start, (goal,))


def greedy_oracle_plan(spec):
    """Action names of the lexicographically first shortest plan, built from
    BFS distances alone: at each cell take the alphabetically first move
    whose target is one step closer to the goal.  None if unreachable."""
    goal = spec.goal_cells[0]
    cell = spec.start
    if bfs_grid_distance(spec, cell, goal) is None:
        return None
    names = []
    while cell != goal:
        here = bfs_grid_distance(spec, cell, goal)
        name, cell = min(
            (f"move-{d}-{cell}-{nbr}", nbr)
            for d, nbr in grid_neighbors(cell, spec.width, spec.height)
            if nbr not in spec.blocked
            and bfs_grid_distance(spec, nbr, goal) == here - 1)
        names.append(name)
    return names


@settings(max_examples=150, deadline=None)
@given(grid_specs())
def test_plans_match_greedy_bfs_oracle(spec):
    result = optimal_plan(grid_task(spec))
    expected = greedy_oracle_plan(spec)
    if expected is None:
        assert result.status is Status.UNSOLVABLE
    else:
        assert [a.name for a in result.plan] == expected


@st.composite
def sweep_cases(draw):
    """A grid whose goal list holds the start cell, a duplicate and random
    free cells (walled off or not), plus an origin reached by a random walk
    of observed moves from the start."""
    spec = draw(grid_specs())
    free = [c for c in range(1, spec.width * spec.height + 1)
            if c not in spec.blocked]
    extra = draw(st.lists(st.sampled_from(free), max_size=4))
    goal_cells = (spec.goal_cells[0], spec.start, spec.goal_cells[0], *extra)
    spec = GridSpec(spec.width, spec.height, spec.blocked, spec.start,
                    goal_cells)
    domain, state, _ = compile_grid(spec)
    for _ in range(draw(st.integers(0, 6))):
        moves = domain.applicable_actions(state)
        if not moves:
            break
        state = apply(state, draw(st.sampled_from(moves)))
    return spec, state


@settings(max_examples=150, deadline=None)
@given(sweep_cases())
@example((GridSpec(3, 3, frozenset({6, 8}), 1, (9, 1, 9, 5)),
          frozenset({"at-1"})))
def test_optimal_costs_match_bfs_oracle_per_goal(case):
    spec, state = case
    domain, _, goals = compile_grid(spec)
    (fact,) = state
    cell = int(fact.split("-")[1])
    assert optimal_costs(domain, state, goals) == [
        bfs_grid_distance(spec, cell, g) for g in spec.goal_cells]


@pytest.mark.parametrize("goal_cells", [(1, 21, 7, 10), (1, 21, 7, 25, 10)],
                         ids=["reachable", "one-walled-off"])
def test_sweep_budget_fails_exactly_when_a_single_goal_search_does(goal_cells):
    # 19 cells are reachable from cell 7; cell 25 is walled off
    spec = GridSpec(5, 5, frozenset({8, 13, 19, 20, 24}), 7, goal_cells)
    domain, initial, goals = compile_grid(spec)

    def raises(search):
        try:
            search()
        except BudgetExceeded:
            return True
        return False

    outcomes = set()
    for budget in range(1, 25):
        single = any(raises(lambda: optimal_cost(
            PlanningTask(domain, initial, g), budget)) for g in goals)
        swept = raises(lambda: optimal_costs(domain, initial, goals, budget))
        assert swept == single, budget
        outcomes.add(swept)
    assert outcomes == {True, False}


def test_budget_exceeded_raises():
    spec = GridSpec(6, 6, frozenset(), 1, (36,))
    with pytest.raises(BudgetExceeded):
        optimal_plan(grid_task(spec), budget=3)
    with pytest.raises(BudgetExceeded):
        optimal_cost(grid_task(spec), budget=3)


def test_first_action_returns_first_plan_step():
    # counterfactual route up from cell 23 through 14 to the goal at 5
    spec = GridSpec(9, 5, frozenset({6, 7, 15, 16, 35}), 23, (5,))
    result = optimal_plan(grid_task(spec))
    assert [a.name for a in result.plan] == ["move-up-23-14", "move-up-14-5"]
    assert first_action(result).name == "move-up-23-14"


def test_first_action_empty_plan_and_unsolvable():
    assert first_action(PlanResult(Status.SOLVED, Plan(), 0)) is None
    assert first_action(PlanResult(Status.UNSOLVABLE)) is None


def test_optimal_cost_equals_plan_cost():
    rng = random.Random(17)
    for _ in range(30):
        spec = random_grid_spec(rng, max_side=6)
        task = grid_task(spec)
        result = optimal_plan(task)
        cost = optimal_cost(task)
        if result.solved:
            assert cost == result.cost == len(result.plan)
        else:
            assert cost is None
