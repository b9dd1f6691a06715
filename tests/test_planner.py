import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from grexplain import (BudgetExceeded, GridSpec, PlanningTask, SokobanSpec,
                       compile_grid, compile_sokoban, optimal_cost,
                       optimal_costs, optimal_plan)
from grexplain.planner import DEFAULT_BUDGET, sweep

from conftest import (apply, bfs_grid_distance, bfs_order, random_grid_spec,
                      strips_domain)
from grexplain.grids import DIRECTIONS, GridDomain, offset
from test_strips import strips_domains


def grid_task(spec):
    domain, initial, goals = compile_grid(spec)
    return PlanningTask(domain, initial, goals[0])


def test_three_by_three_matches_bfs_oracle():
    spec = GridSpec(3, 3, frozenset(), 7, (1,))
    assert bfs_grid_distance(spec, 7, 1) == 2
    assert optimal_cost(grid_task(spec)) == 2


def test_goal_in_initial_state_gives_empty_plan():
    spec = GridSpec(3, 3, frozenset(), 5, (5,))
    assert optimal_plan(grid_task(spec)) == ()
    assert optimal_cost(grid_task(spec)) == 0


def test_walled_off_goal_is_unsolvable():
    # goal cell 9 enclosed by blocks 6 and 8 on a 3x3 board
    spec = GridSpec(3, 3, frozenset({6, 8}), 1, (9,))
    assert optimal_plan(grid_task(spec)) is None
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
        assert plans[0] == plans[1] == plans[2]


def test_tie_break_is_lexicographic_by_action_name():
    # From the centre to the bottom-right corner both down-first and
    # right-first plans are optimal; "down" sorts before "right".
    spec = GridSpec(3, 3, frozenset(), 5, (9,))
    plan = optimal_plan(grid_task(spec))
    assert [a.name for a in plan] == ["move-down-5-8", "move-right-8-9"]


def test_lexicographic_tie_break_full_sequence():
    spec = GridSpec(4, 4, frozenset(), 1, (16,))
    plan = optimal_plan(grid_task(spec))
    # every interleaving of 3 downs and 3 rights is optimal; the
    # lexicographically-first takes all downs first
    assert [a.name.split("-")[1] for a in plan] == ["down"] * 3 + ["right"] * 3


def test_plan_step_is_first_named_action_between_two_states():
    # b-go and a-go both lead from {start} to {mid}; the plan takes a-go,
    # the action that discovered {mid}, not b-go, declared first
    domain = strips_domain(["start", "mid", "end"], [
        ("b-go", {"start"}, {"mid"}, {"start"}),
        ("a-go", {"start"}, {"mid"}, {"start"}),
        ("finish", {"mid"}, {"end"}, {"mid"})])
    plan = optimal_plan(PlanningTask(domain, domain.encode({"start"}),
                                     domain.encode({"end"})))
    assert [a.name for a in plan] == ["a-go", "finish"]


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
        steps = ((d, offset(cell, d, spec.width, spec.height))
                 for d in DIRECTIONS)
        name, cell = min(
            (f"move-{d}-{cell}-{nbr}", nbr) for d, nbr in steps
            if nbr is not None and nbr not in spec.blocked
            and bfs_grid_distance(spec, nbr, goal) == here - 1)
        names.append(name)
    return names


@settings(max_examples=150, deadline=None)
@given(grid_specs())
def test_plans_match_greedy_bfs_oracle(spec):
    plan = optimal_plan(grid_task(spec))
    expected = greedy_oracle_plan(spec)
    if expected is None:
        assert plan is None
    else:
        assert [a.name for a in plan] == expected


@st.composite
def sweep_cases(draw):
    """A grid whose goal list holds the start cell, a duplicate and random
    free cells (walled off or not), plus an origin reached by a random walk
    of observed moves from the start, as a fact set."""
    spec = draw(grid_specs())
    free = [c for c in range(1, spec.width * spec.height + 1)
            if c not in spec.blocked]
    extra = draw(st.lists(st.sampled_from(free), max_size=4))
    goal_cells = (spec.goal_cells[0], spec.start, spec.goal_cells[0], *extra)
    spec = GridSpec(spec.width, spec.height, spec.blocked, spec.start,
                    goal_cells)
    domain, initial, _ = compile_grid(spec)
    state = domain.decode(initial)
    for _ in range(draw(st.integers(0, 6))):
        moves = domain.applicable_actions(domain.encode(state))
        if not moves:
            break
        state = apply(domain, state, draw(st.sampled_from(moves)))
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
    assert optimal_costs(domain, domain.encode(state), goals) == [
        bfs_grid_distance(spec, cell, g) for g in spec.goal_cells]


@settings(max_examples=100, deadline=None)
@given(sweep_cases())
@example((GridSpec(1, 4, frozenset({2}), 3, (1, 3, 1, 4)),
          frozenset({"at-3"})))
def test_distance_tables_match_sweeps_on_grids(case):
    spec, _ = case
    domain, _, goals = compile_grid(spec)
    goals += [1 << (cell - 1) for cell in sorted(spec.blocked)[:1]]
    states = list(domain.states)
    rows = domain.goal_costs(goals, states, len(states))
    assert len(rows) == len(states)
    for state, row in zip(states, rows):
        assert row == optimal_costs(domain, state, goals)


def test_goal_costs_give_up_past_the_cap_and_fill_no_rows():
    # the cap is the grid hook's limit: 19 cells are reachable from goal 1
    spec = GridSpec(5, 5, frozenset({8, 13, 19, 20, 24}), 7, (1, 25))
    domain, initial, goals = compile_grid(spec)
    assert domain.goal_costs(goals, [initial], 18) is None
    assert domain.goal_costs(goals, [initial], 19) == [[2, None]]
    assert all(row is None for row in domain.rows)


def test_goal_costs_give_up_exactly_when_a_goal_reaches_past_the_limit():
    # goal 25 is walled off, so it reaches its own cell only, and 19 cells
    # are reachable from goal 1, as a sweep from there discovers them; the
    # hook gives up exactly at the limits below 19, and fills no row
    spec = GridSpec(5, 5, frozenset({8, 13, 19, 20, 24}), 7, (1, 25))
    domain, initial, goals = compile_grid(spec)
    assert len(sweep(domain, goals[0], [goals[1]]).parents) == 19
    for limit in range(1, 20):
        fresh = compile_grid(spec)[0]
        found = fresh.goal_costs(goals, [initial], limit)
        assert (found is None) == (limit < 19), limit
        assert fresh.goal_costs(goals[1:], [initial], limit) == [[None]]
        assert all(row is None for row in fresh.rows), limit


def test_only_one_cell_goals_on_a_grid_get_tables():
    domain, initial, goals = compile_grid(GridSpec(3, 3, frozenset(), 7, (9,)))
    assert domain.goal_costs(goals, [initial], 9) == [[2]]
    for goal in (0, 1 << 8 | 1 << 2, 1 << 9):
        assert domain.goal_costs([*goals, goal], [initial], 9) is None
    other = strips_domain(["p", "q"], [("a", {"p"}, {"q"}, {"p"})])
    assert other.goal_costs([other.encode({"q"})], [other.encode({"p"})],
                            9) is None


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


def test_a_sokoban_sweep_for_several_goals_may_run_out_where_none_alone_does():
    # 5x1 corridor, player on 5, box on 3: box-1 is met at depth 3 by the
    # second state of that layer, (player 2, box 1), which the sweep for
    # box-5 alone drops as hopeless; the sweep for both goals expands it,
    # and box-5 is never met, so it dequeues 6 states against 5 and 5
    spec = SokobanSpec(5, 1, frozenset(), 5, (3,), (1, 5), ((1,), (5,)),
                       False)
    domain, initial, goals = compile_sokoban(spec)
    assert [sweep(domain, initial, [g]).dequeued for g in goals] == [5, 5]
    assert sweep(domain, initial, goals).dequeued == 6
    for g in goals:
        optimal_cost(PlanningTask(domain, initial, g), budget=5)
    with pytest.raises(BudgetExceeded):
        optimal_costs(domain, initial, goals, budget=5)
    assert optimal_costs(domain, initial, goals, budget=6) == [3, None]


def dequeue_oracle(domain, initial, goals):
    """(cost per goal, states a sweep dequeues), read off ``bfs_order``: the
    1-based position of the first state by which every goal has been met,
    every reachable state when some goal is never met, none for no goals."""
    order = bfs_order(domain, domain.decode(initial))
    costs, firsts = [], []
    for goal in map(domain.decode, goals):
        first = next((p for p, (state, _) in enumerate(order)
                      if goal <= state), None)
        firsts.append(first)
        costs.append(None if first is None else order[first][1])
    if not goals:
        return costs, 0
    if None in firsts:
        return costs, len(order)
    return costs, max(firsts) + 1


def assert_dequeues_match_oracle(domain, initial, goals):
    costs, dequeued = dequeue_oracle(domain, initial, goals)
    found = sweep(domain, initial, goals)
    assert (found.costs, found.dequeued) == (costs, dequeued)
    for budget in range(1, dequeued + 2):
        try:
            optimal_costs(domain, initial, goals, budget)
        except BudgetExceeded:
            assert budget < dequeued, budget
        else:
            assert budget >= dequeued, budget


@settings(max_examples=150, deadline=None)
@given(sweep_cases())
def test_sweep_dequeues_match_bfs_order_on_grids(case):
    spec, state = case
    domain, _, goals = compile_grid(spec)
    assert_dequeues_match_oracle(domain, domain.encode(state), goals)


@st.composite
def strips_sweeps(draw):
    """A ``strips_domains`` listing, which always holds a condition-free
    action, one of its drawn states and up to four goals, possibly none."""
    domain, _, states = draw(strips_domains())
    subsets = st.frozensets(st.sampled_from(domain.facts))
    goals = draw(st.lists(subsets, max_size=4))
    return domain, domain.encode(states[0]), list(map(domain.encode, goals))


@settings(max_examples=150, deadline=None)
@given(strips_sweeps())
def test_sweep_dequeues_match_bfs_order_on_strips_listings(case):
    assert_dequeues_match_oracle(*case)


def test_an_empty_goal_list_dequeues_nothing():
    domain, initial, _ = compile_grid(GridSpec(3, 3, frozenset(), 1, (9,)))
    found = sweep(domain, initial, [])
    assert (found.costs, len(found.parents), found.dequeued) == ([], 1, 0)
    assert optimal_costs(domain, initial, [], budget=1) == []


def test_budget_exceeded_raises():
    spec = GridSpec(6, 6, frozenset(), 1, (36,))
    with pytest.raises(BudgetExceeded):
        optimal_plan(grid_task(spec), budget=3)
    with pytest.raises(BudgetExceeded):
        optimal_cost(grid_task(spec), budget=3)


def test_plan_is_a_tuple_of_actions_led_by_the_counterfactual_step():
    # counterfactual route up from cell 23 through 14 to the goal at 5
    spec = GridSpec(9, 5, frozenset({6, 7, 15, 16, 35}), 23, (5,))
    task = grid_task(spec)
    plan = optimal_plan(task)
    assert type(plan) is tuple
    assert [a.name for a in plan] == ["move-up-23-14", "move-up-14-5"]
    assert plan[0] is task.domain.action("move-up-23-14")


def test_optimal_cost_equals_plan_cost():
    rng = random.Random(17)
    for _ in range(30):
        spec = random_grid_spec(rng, max_side=6)
        task = grid_task(spec)
        plan = optimal_plan(task)
        cost = optimal_cost(task)
        assert cost == (None if plan is None else len(plan))


@st.composite
def walled_plan_cases(draw):
    """(spec, starts, goals, R): a grid of 1-8 cells a side with about 30%
    walls; the starts are the spec's start cell and a blocked cell where
    there is one, the goals the start cell, 1-3 free cells, often walled
    off from the start, and that blocked cell; R is the number of cells
    reachable from the start."""
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = range(1, width * height + 1)
    blocked = {c for c in cells if draw(st.integers(0, 9)) < 3}
    free = [c for c in cells if c not in blocked]
    assume(free)
    start = draw(st.sampled_from(free))
    walled = sorted(blocked)[:1]
    goal_cells = [start, *draw(st.lists(st.sampled_from(free), min_size=1,
                                        max_size=3, unique=True)), *walled]
    spec = GridSpec(width, height, frozenset(blocked), start, ())
    reach = sum(bfs_grid_distance(spec, start, c) is not None for c in free)
    return (spec, [1 << (c - 1) for c in (start, *walled)],
            [1 << (c - 1) for c in goal_cells], reach)


def plan_outcomes(spec, starts, goals, budgets) -> list:
    """Per start, goal and budget, on a fresh compile of ``spec``: the
    names of ``optimal_plan``'s plan, None for no plan, or the
    BudgetExceeded message."""
    found = []
    for initial in starts:
        for goal in goals:
            domain = compile_grid(spec)[0]
            for budget in budgets:
                try:
                    plan = optimal_plan(PlanningTask(domain, initial, goal),
                                        budget)
                except BudgetExceeded as exc:
                    found.append(str(exc))
                else:
                    found.append(plan if plan is None
                                 else [a.name for a in plan])
    return found


@settings(max_examples=100, deadline=None)
@given(walled_plan_cases())
@example((GridSpec(3, 3, frozenset({6, 8}), 1, ()), [1, 1 << 5],
          [1 << 8, 1, 1 << 5], 6))
@example((GridSpec(1, 5, frozenset({3}), 2, ()), [1 << 1, 1 << 2],
          [1 << 1, 1 << 4, 1, 1 << 2], 2))
@example((GridSpec(6, 1, frozenset(), 3, ()), [1 << 2], [1 << 2, 1 << 5, 1],
          6))
def test_grid_shortest_paths_give_the_sweeps_outcome_at_every_budget(case):
    spec, starts, goals, reach = case
    budgets = [*range(1, reach + 3), DEFAULT_BUDGET]
    domain = compile_grid(spec)[0]
    for initial in starts:
        for goal in goals:
            assert domain.shortest_path(initial, goal,
                                        DEFAULT_BUDGET) is not None
    found = plan_outcomes(spec, starts, goals, budgets)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GridDomain, "shortest_path", lambda *args: None)
        assert plan_outcomes(spec, starts, goals, budgets) == found
