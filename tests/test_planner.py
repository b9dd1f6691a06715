import random

import pytest
from hypothesis import example, given, settings, strategies as st

from grexplain import (BudgetExceeded, GridSpec, PlanningTask, SokobanSpec,
                       compile_grid, compile_sokoban, optimal_cost,
                       optimal_costs, optimal_plan)
from grexplain.planner import distance_tables, sweep, sweep_costs

from conftest import (apply, bfs_grid_distance, bfs_order, random_grid_spec,
                      strips_domain)
from grexplain.grids import DIRECTIONS, offset
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


def assert_tables_match_sweeps(domain, initial, goals):
    # a state reachable only through a hopeless one is interned after the
    # tables are built, so its id lies past their end and reads None
    tables = distance_tables(domain, initial, goals)
    for state, _ in bfs_order(domain, domain.decode(initial)):
        state = domain.encode(state)
        sid = domain.state_id(state)
        assert [table[sid] if sid < len(table) else None
                for table in tables] == optimal_costs(domain, state, goals)


@settings(max_examples=100, deadline=None)
@given(sweep_cases())
def test_distance_tables_match_sweeps_on_grids(case):
    spec, state = case
    domain, _, goals = compile_grid(spec)
    assert_tables_match_sweeps(domain, domain.encode(state), goals)


@st.composite
def strips_problems(draw):
    """A raw-STRIPS domain over up to five facts, an initial state and up to
    three goals, any of which may be unreachable, as state ints and goal
    masks."""
    facts = [f"f{i}" for i in range(draw(st.integers(1, 5)))]
    subsets = st.frozensets(st.sampled_from(facts))
    rows = []
    for i in range(draw(st.integers(0, 6))):
        add = draw(subsets)
        rows.append((f"a{i}", draw(subsets), add, draw(subsets) - add))
    domain = strips_domain(facts, rows)
    return (domain, domain.encode(draw(subsets)),
            [domain.encode(g)
             for g in draw(st.lists(subsets, min_size=1, max_size=3))])


@settings(max_examples=150, deadline=None)
@given(strips_problems())
def test_distance_tables_match_sweeps_on_strips_listings(case):
    assert_tables_match_sweeps(*case)


def test_distance_tables_match_sweeps_on_every_sokoban_state():
    spec = SokobanSpec(4, 4, frozenset(), 1, (6, 7), (11, 15),
                       ((11, 15), (11,), (15,)), False)
    domain, initial, goals = compile_sokoban(spec)
    assert len(bfs_order(domain, domain.decode(initial))) == 1676
    assert_tables_match_sweeps(domain, initial, goals)


def test_distance_tables_give_up_past_the_cap_and_keep_their_rows():
    spec = GridSpec(5, 5, frozenset({8, 13, 19, 20, 24}), 7, (1, 25))
    domain, initial, goals = compile_grid(spec)
    assert distance_tables(domain, initial, goals, cap=18) is None
    assert sum(row is not None for row in domain.rows) > 0
    tables = distance_tables(domain, initial, goals, cap=19)
    start = domain.state_id(initial)
    assert [table[start] for table in tables] == [2, None]


def test_distance_tables_give_up_at_the_row_that_passes_the_cap():
    # goal 25 is walled off, so a sweep for it discovers all 19 reachable
    # states in breadth-first order; the tables stop after the row of the
    # state that discovered state cap + 1, and fill no later row
    spec = GridSpec(5, 5, frozenset({8, 13, 19, 20, 24}), 7, (1, 25))
    domain, initial, goals = compile_grid(spec)
    parents = sweep(domain, initial, [goals[1]]).parents
    order = list(parents)
    assert len(order) == 19
    for cap in range(1, 19):
        fresh = compile_grid(spec)[0]
        assert distance_tables(fresh, initial, goals, cap=cap) is None
        expanded = order.index(parents[order[cap]]) + 1
        assert sum(row is not None for row in fresh.rows) == expanded, cap


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
    assert [sweep_costs(domain, initial, [g])[2] for g in goals] == [5, 5]
    assert sweep_costs(domain, initial, goals)[2] == 6
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
    found, _, swept = sweep_costs(domain, initial, goals)
    assert (found, swept) == (costs, dequeued)
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
    assert sweep_costs(domain, initial, []) == ([], 1, 0)
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
