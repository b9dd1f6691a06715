import gc
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from grexplain import (AllGoalsUnsolvable, BudgetExceeded, GridSpec,
                       GroundAction, GrProblem, InvalidObservationChain,
                       MalformedSpec, Observation, PlanningTask, SokobanSpec,
                       bundled_scenario_path, compile_grid, compile_sokoban,
                       load_scenario, mirror_posteriors, optimal_costs,
                       optimal_plan)
from grexplain import recognizer
from grexplain.grids import GridDomain
from grexplain.planner import sweep
from grexplain.strips import DomainDefinition, step
from grexplain.recognizer import PosteriorTrace, split_goals

from conftest import bfs_grid_distance, random_grid_spec, walk


def make_trace(final, prior=None):
    prior = prior or tuple(1 / len(final) for _ in final)
    n = len(final)
    predicted = frozenset(i for i, p in enumerate(final)
                          if p >= max(final) - 1e-9)
    return PosteriorTrace(prior=tuple(prior), per_prefix=(tuple(final),),
                          predicted=predicted,
                          counterfactual=frozenset(range(n)) - predicted)


def test_tiny_grid_distribution_matches_hand_normalization(tiny_grid_problem):
    # distances from cell 7: goal 1 costs 2, goal 3 costs 4; after moving
    # right to cell 8 the scores are 2/(1+3) and 4/(1+3): (1/3, 2/3)
    trace = mirror_posteriors(tiny_grid_problem)
    assert trace.per_prefix[0] == pytest.approx((1 / 3, 2 / 3), abs=1e-12)


def test_zero_observations_give_uniform_distribution(monkeypatch):
    # no prefix reads a suffix cost, so the grid's costs are never asked for
    domain, initial, goals = compile_grid(GridSpec(3, 3, frozenset(), 5, (1, 9)))
    problem = GrProblem(domain, initial, tuple(goals))
    built = spy_on_goal_costs(monkeypatch)
    trace = mirror_posteriors(problem)
    assert built == []
    assert trace == PosteriorTrace(prior=(0.5, 0.5), per_prefix=(),
                                   predicted=frozenset({0, 1}),
                                   counterfactual=frozenset())
    assert trace.final == trace.prior


def test_single_goal_gets_probability_one_everywhere():
    domain, initial, goals = compile_grid(GridSpec(3, 3, frozenset(), 7, (3,)))
    obs = walk(domain, initial, ["move-up-7-4", "move-up-4-1"])
    problem = GrProblem(domain, initial, tuple(goals), obs)
    trace = mirror_posteriors(problem)
    assert trace.prior == (1.0,)
    for dist in trace.per_prefix:
        assert dist == (1.0,)
    assert trace.predicted == frozenset({0})
    assert trace.counterfactual == frozenset()


def test_distributions_are_normalized_and_nonnegative():
    rng = random.Random(31)
    checked = 0
    while checked < 15:
        spec = random_grid_spec(rng, max_side=6)
        free = [c for c in range(1, spec.width * spec.height + 1)
                if c not in spec.blocked and c != spec.start]
        if len(free) < 3:
            continue
        goals = tuple(rng.sample(free, 3))
        spec = GridSpec(spec.width, spec.height, spec.blocked, spec.start, goals)
        domain, initial, goal_sets = compile_grid(spec)
        problem = GrProblem(domain, initial, tuple(goal_sets))
        try:
            trace = mirror_posteriors(problem)
        except AllGoalsUnsolvable:
            continue
        checked += 1
        for dist in (trace.prior,) + trace.per_prefix:
            assert abs(sum(dist) - 1.0) < 1e-9
            assert all(p >= 0 for p in dist)


def test_posteriors_match_independent_cost_ratio_oracle(nav_problem):
    # Recompute every distribution from BFS cell distances, bypassing the
    # planner and the recognizer's incremental bookkeeping.
    spec = GridSpec(9, 5, frozenset({6, 7, 15, 16, 35}), 20, (5, 8, 36))
    trace = mirror_posteriors(nav_problem)
    base = [bfs_grid_distance(spec, 20, g) for g in spec.goal_cells]
    cell = 20
    for i, obs in enumerate(nav_problem.observations, start=1):
        cell = int(obs.action.name.rsplit("-", 1)[1])
        scores = [d / (i + bfs_grid_distance(spec, cell, g))
                  for d, g in zip(base, spec.goal_cells)]
        expected = tuple(s / sum(scores) for s in scores)
        assert trace.per_prefix[i - 1] == pytest.approx(expected, abs=1e-12)


def test_scale_free_scoring_via_ratio_form(nav_problem):
    # Multiplying all costs by a constant leaves every distribution unchanged.
    spec = GridSpec(9, 5, frozenset({6, 7, 15, 16, 35}), 20, (5, 8, 36))
    trace = mirror_posteriors(nav_problem)
    base = [bfs_grid_distance(spec, 20, g) for g in spec.goal_cells]
    for c in (3, 17):
        cell = 20
        for i, obs in enumerate(nav_problem.observations, start=1):
            cell = int(obs.action.name.rsplit("-", 1)[1])
            scores = [(c * d) / (c * i + c * bfs_grid_distance(spec, cell, g))
                      for d, g in zip(base, spec.goal_cells)]
            expected = tuple(s / sum(scores) for s in scores)
            assert trace.per_prefix[i - 1] == pytest.approx(expected, abs=1e-12)


def test_unsolvable_goal_receives_probability_zero():
    # goal cell 9 is walled off; the reachable goal takes all the mass
    spec = GridSpec(3, 3, frozenset({6, 8}), 1, (9, 3))
    domain, initial, goals = compile_grid(spec)
    obs = walk(domain, initial, ["move-right-1-2"])
    trace = mirror_posteriors(GrProblem(domain, initial, tuple(goals), obs))
    assert trace.prior == (0.0, 1.0)
    assert trace.per_prefix[0] == (0.0, 1.0)


def test_all_goals_unsolvable_raises():
    spec = GridSpec(3, 3, frozenset({6, 8}), 1, (9,))
    domain, initial, goals = compile_grid(spec)
    with pytest.raises(AllGoalsUnsolvable):
        mirror_posteriors(GrProblem(domain, initial, tuple(goals)))
    # goal 9's own table counts its one cell, so it is built, but it does
    # not reach the start: the sweep from the start prices the rows after
    # all, and it dequeues the start's R = 6 cells
    problem = GrProblem(domain, initial, tuple(goals),
                        walk(domain, initial, ["move-right-1-2"]))
    with pytest.raises(BudgetExceeded, match="^expansion budget of 5 nodes "
                       "exceeded pricing the goals after observation 0$") as err:
        mirror_posteriors(problem, budget=5)
    assert err.value.prefix == 0
    with pytest.raises(AllGoalsUnsolvable, match="^no goal hypothesis is "
                       "reachable after observation 0$") as err:
        mirror_posteriors(problem, budget=6)
    assert err.value.prefix == 0


def test_optimal_confirmation_monotonicity():
    # observations follow the optimal plan to goal 1 while goal 9 needs the
    # opposite corner: the confirmed goal is the unique max at every prefix
    domain, initial, goals = compile_grid(GridSpec(3, 3, frozenset(), 7, (1, 9)))
    obs = walk(domain, initial, ["move-up-7-4", "move-up-4-1"])
    trace = mirror_posteriors(GrProblem(domain, initial, tuple(goals), obs))
    for dist in trace.per_prefix:
        assert dist[0] > dist[1]


def test_split_goal_sets_co_predicts_exact_ties():
    trace = make_trace((0.27, 0.365, 0.365))
    predicted, counterfactual = split_goals(trace.final)
    assert predicted == frozenset({1, 2})
    assert counterfactual == frozenset({0})


def test_split_goal_sets_single_goal():
    trace = make_trace((1.0,))
    predicted, counterfactual = split_goals(trace.final)
    assert predicted == frozenset({0}) and counterfactual == frozenset()


def test_split_goal_sets_unique_argmax():
    trace = make_trace((0.2, 0.3, 0.5))
    predicted, counterfactual = split_goals(trace.final)
    assert predicted == frozenset({2})
    assert counterfactual == frozenset({0, 1})


def test_observation_chain_validation():
    domain, initial, goals = compile_grid(GridSpec(3, 3, frozenset(), 7, (1,)))
    up = domain.action("move-up-7-4")
    wrong_state = Observation(up, domain.encode({"at-9"}))
    with pytest.raises(InvalidObservationChain, match="recorded state"):
        GrProblem(domain, initial, tuple(goals), (wrong_state,))
    inapplicable = domain.action("move-up-4-1")
    with pytest.raises(InvalidObservationChain) as err:
        GrProblem(domain, initial, tuple(goals),
                  (Observation(inapplicable, domain.encode({"at-1"})),))
    assert err.value.index == 1
    jump = GroundAction("jump", initial, 1 << 0, initial)
    with pytest.raises(InvalidObservationChain,
                       match="^observation 1: unknown action jump$"):
        GrProblem(domain, initial, tuple(goals), (Observation(jump, 1 << 0),))


def test_problem_rejects_mask_bits_past_the_declared_facts():
    domain, initial, goals = compile_grid(GridSpec(3, 3, frozenset(), 7, (1, 3)))
    past = 1 << len(domain.facts)
    with pytest.raises(MalformedSpec, match="^initial state: .*outside"):
        GrProblem(domain, initial | past, tuple(goals))
    with pytest.raises(MalformedSpec, match="^goal right: .*outside"):
        GrProblem(domain, initial, (goals[0], goals[1] | past),
                  goal_names=("left", "right"))
    with pytest.raises(MalformedSpec, match="^goal g1: .*outside"):
        GrProblem(domain, initial, (-1, goals[1]))


def test_problem_requires_goals():
    domain, initial, goals = compile_grid(GridSpec(2, 2, frozenset(), 1,
                                                   (4, 2)))
    with pytest.raises(MalformedSpec):
        GrProblem(domain, initial, ())
    with pytest.raises(MalformedSpec, match=r"^goal_names must be distinct: "
                       r"\['a', 'a'\]$"):
        GrProblem(domain, initial, tuple(goals), goal_names=("a", "a"))


def test_priors_reweight_posteriors(tiny_grid_problem):
    trace = mirror_posteriors(tiny_grid_problem, priors=[0.8, 0.2])
    # scores (1/2, 1) weighted: 0.4 vs 0.2 -> (2/3, 1/3)
    assert trace.per_prefix[0] == pytest.approx((2 / 3, 1 / 3), abs=1e-12)
    with pytest.raises(MalformedSpec):
        mirror_posteriors(tiny_grid_problem, priors=[1.0])


def sweep_calls(problem):
    """The n + 1 (state, goals) pairs the sweep path prices."""
    domain, goals = problem.domain, problem.goals
    base = optimal_costs(domain, problem.initial, goals)
    live = [g for g, c in zip(goals, base) if c is not None]
    return [(problem.initial, goals)] + [(o.resulting_state, live)
                                         for o in problem.observations]


def assert_budget_points_match_the_sweeps(problem, budgets):
    unlimited = mirror_posteriors(problem)
    calls = sweep_calls(problem)
    outcomes = set()
    for budget in budgets:
        try:
            for state, goals in calls:
                optimal_costs(problem.domain, state, goals, budget)
            expected = False
        except BudgetExceeded:
            expected = True
        try:
            trace = mirror_posteriors(problem, budget=budget)
        except BudgetExceeded:
            trace = None
        assert (trace is None) == expected, budget
        assert trace in (None, unlimited)
        outcomes.add(expected)
    assert outcomes == {True, False}


def spy_on_goal_costs(monkeypatch, kind=GridDomain):
    """Record what every ``kind.goal_costs`` call returns."""
    built = []
    costs = kind.goal_costs

    def spy(*args):
        built.append(costs(*args))
        return built[-1]

    monkeypatch.setattr(kind, "goal_costs", spy)
    return built


@pytest.mark.parametrize("goal_cells", [(1, 2, 6), (1, 2, 25, 6)],
                         ids=["reachable", "one-walled-off"])
def test_budget_points_match_the_sweeps_on_the_table_path(goal_cells,
                                                         monkeypatch):
    # 19 cells are reachable from cell 7; cell 25 is walled off.  The goals
    # lie beside the start and the agent walks away from them, so the
    # reachable goals' first sweep dequeues 7 states and the later ones 12.
    spec = GridSpec(5, 5, frozenset({8, 13, 19, 20, 24}), 7, goal_cells)
    domain, initial, goals = compile_grid(spec)
    obs = walk(domain, initial, [
        "move-left-7-6", "move-down-6-11", "move-down-11-16", "move-down-16-21",
        "move-right-21-22", "move-right-22-23", "move-up-23-18",
        "move-left-18-17", "move-down-17-22",
        *["move-left-22-21", "move-right-21-22"] * 3, "move-left-22-21"])
    problem = GrProblem(domain, initial, tuple(goals), obs)
    built = spy_on_goal_costs(monkeypatch)
    assert_budget_points_match_the_sweeps(problem, range(1, 19 + 2))
    assert built[-1] is not None


@st.composite
def walled_grid_problems(draw):
    """(problem, R) on a grid of 1-7 cells a side with about 30% walls, so
    often several components: 1-4 goal cells, sometimes with the empty goal
    or a two-cell goal after them, and a walk of 0-8 moves from the start,
    which reaches R cells."""
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cells = range(1, width * height + 1)
    blocked = {c for c in cells if draw(st.integers(0, 9)) < 3}
    free = [c for c in cells if c not in blocked]
    assume(free)
    start = draw(st.sampled_from(free))
    spec = GridSpec(width, height, frozenset(blocked), start,
                    draw(st.lists(st.sampled_from(free), min_size=1,
                                  max_size=4, unique=True)))
    domain, initial, goals = compile_grid(spec)
    extra = draw(st.sampled_from(["none", "empty", "two cells"]))
    if extra == "empty":
        goals.append(0)
    elif extra == "two cells" and len(free) > 1:
        a, b = draw(st.lists(st.sampled_from(free), min_size=2, max_size=2,
                             unique=True))
        goals.append(1 << (a - 1) | 1 << (b - 1))
    observations, state = [], initial
    for _ in range(draw(st.integers(0, 8))):
        applicable = domain.applicable_actions(state)
        if not applicable:
            break
        action = draw(st.sampled_from(applicable))
        state = step(state, action)
        observations.append(Observation(action, state))
    reach = sum(bfs_grid_distance(spec, start, c) is not None for c in free)
    return GrProblem(domain, initial, tuple(goals), observations), reach


def outcome(problem, budget):
    """The trace of ``problem`` at ``budget``, or its error's type, message
    and prefix."""
    try:
        return mirror_posteriors(problem, budget=budget)
    except (AllGoalsUnsolvable, BudgetExceeded) as exc:
        return type(exc), str(exc), exc.prefix


@settings(max_examples=300, deadline=None)
@given(walled_grid_problems())
def test_the_tables_give_the_outcome_of_the_sweeps_at_every_budget(drawn):
    problem, reach = drawn
    budgets = [*range(1, reach + 3), recognizer.DEFAULT_BUDGET]
    found = [outcome(problem, budget) for budget in budgets]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GridDomain, "goal_costs", lambda *args: None)
        assert [outcome(problem, budget) for budget in budgets] == found


@pytest.mark.parametrize("name, sweeps", [("bench/grid_04", 0),
                                          ("nav_crossroads", 0),
                                          ("bench/sokoban_03", 2)])
def test_a_grid_whose_tables_reach_the_start_runs_no_sweep(name, sweeps,
                                                           monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(recognizer, "sweep", counted)
    mirror_posteriors(load_scenario(bundled_scenario_path(name)))
    assert len(calls) == sweeps


def test_recognition_on_a_grid_fills_no_successor_row():
    # the goal costs come from whole-board layers, not from the rows
    problem = load_scenario(bundled_scenario_path("nav_crossroads"))
    assert problem.observations
    mirror_posteriors(problem)
    assert all(row is None for row in problem.domain.rows)


def test_budget_points_match_the_sweeps_on_sokoban_pairs(monkeypatch):
    # A Sokoban board gets no tables, so a run compares the budget only
    # with each sweep's size, and the budgets at and beside those sizes
    # reach every outcome; all of 1..26,585 would take minutes.
    problem = load_scenario(bundled_scenario_path("sokoban_pairs"))
    sizes = [sweep(problem.domain, state, goals).dequeued
             for state, goals in sweep_calls(problem)]
    budgets = sorted({1, 2} | {c + d for c in sizes for d in (-1, 0, 1)})
    built = spy_on_goal_costs(monkeypatch, DomainDefinition)
    assert_budget_points_match_the_sweeps(problem, budgets)
    assert built and all(tables is None for tables in built)


def test_goals_that_are_not_one_cell_are_priced_by_the_sweeps(monkeypatch):
    # the empty goal holds at depth 0 in every cell, and a two-cell goal in
    # none; a grid has tables only for one-cell goals, so these run on the
    # sweeps, as with no tables at all
    domain, initial, _ = compile_grid(GridSpec(3, 3, frozenset(), 7, (9,)))
    obs = walk(domain, initial, ["move-right-7-8", "move-right-8-9"])
    two_goals = GrProblem(domain, initial, (1 << 8, 0), obs)
    three_goals = GrProblem(domain, initial, (1 << 8, 0, 1 << 8 | 1 << 2), obs)
    traces = [mirror_posteriors(two_goals), mirror_posteriors(three_goals)]
    assert traces[0].per_prefix == ((1.0, 0.0), (1.0, 0.0))
    assert traces[1].per_prefix == ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    monkeypatch.setattr(GridDomain, "goal_costs", lambda *args: None)
    assert [mirror_posteriors(two_goals),
            mirror_posteriors(three_goals)] == traces


def test_recognition_on_a_sokoban_board_expands_what_the_sweeps_expand():
    # each sweep goal-tests a layer before expanding it, so the final
    # layer's states are never expanded
    problem = load_scenario(bundled_scenario_path("bench/sokoban_03"))
    domain, filled = problem.domain, []
    expand = domain.expand

    def counted(state_id):
        if domain.rows[state_id] is None:
            filled.append(state_id)
        return expand(state_id)

    domain.expand = counted
    mirror_posteriors(problem)
    rows = sum(row is not None for row in domain.rows)
    assert len(filled) == len(set(filled)) == rows == 3_218


def test_filled_successor_rows_are_not_tracked_by_the_collector():
    # rows hold successor ids only, so a collection untracks them rather
    # than promoting every row a recognition fills
    problem = load_scenario(bundled_scenario_path("bench/sokoban_03"))
    mirror_posteriors(problem)
    gc.collect()
    rows = [row for row in problem.domain.rows if row is not None]
    assert len(rows) > 1000
    assert not any(gc.is_tracked(row) for row in rows)


@st.composite
def drawn_grids(draw):
    """(domain, initial, goals) of a grid of up to 6x6 cells with walls and
    1-4 distinct goal cells."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = range(1, width * height + 1)
    blocked = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 3))
    free = [c for c in cells if c not in blocked]
    assume(free)
    start = draw(st.sampled_from(free))
    goals = draw(st.lists(st.sampled_from(free), min_size=1, max_size=4,
                          unique=True))
    return compile_grid(GridSpec(width, height, blocked, start, goals))


@st.composite
def drawn_sokobans(draw):
    """(domain, initial, goals) of a Sokoban board of 3x3 to 5x4 cells with
    1-2 boxes off the border, 2-3 storage cells and 1-3 goal assignments."""
    width, height = draw(st.integers(3, 5)), draw(st.integers(3, 4))
    cells = range(1, width * height + 1)
    inner = [r * width + c + 1 for r in range(1, height - 1)
             for c in range(1, width - 1)]
    boxes = draw(st.lists(st.sampled_from(inner), min_size=1, max_size=2,
                          unique=True))
    player = draw(st.sampled_from([c for c in cells if c not in boxes]))
    open_cells = [c for c in cells if c not in boxes and c != player]
    walls = draw(st.sets(st.sampled_from(open_cells), max_size=2))
    storage = draw(st.lists(
        st.sampled_from([c for c in cells if c not in walls and c not in boxes]),
        min_size=2, max_size=3, unique=True))
    goals = draw(st.lists(st.lists(st.sampled_from(storage), min_size=1,
                                   max_size=len(boxes), unique=True),
                          min_size=1, max_size=3))
    return compile_sokoban(SokobanSpec(width, height, walls, player, boxes,
                                       storage, goals, draw(st.booleans())))


@st.composite
def drawn_problems(draw, boards):
    """A problem on a board from ``boards`` whose 0-6 observations first
    follow an optimal plan to one goal for a drawn number of steps, so that
    certificates hold for a while, and then walk at random."""
    domain, initial, goals = draw(boards)
    plan = optimal_plan(PlanningTask(domain, initial,
                                     draw(st.sampled_from(goals)))) or ()
    actions = list(plan[:draw(st.integers(0, len(plan)))])
    state = initial
    for action in actions:
        state = step(state, action)
    for _ in range(draw(st.integers(0, 6 - min(len(actions), 6)))):
        applicable = domain.applicable_actions(state)
        if not applicable:
            break
        actions.append(draw(st.sampled_from(applicable)))
        state = step(state, actions[-1])
    observations, state = [], initial
    for action in actions[:6]:
        state = step(state, action)
        observations.append(Observation(action, state))
    return GrProblem(domain, initial, tuple(goals), observations)


def plain_posteriors(problem):
    """The per-prefix posteriors of the n + 1 plain sweeps: every goal priced
    by ``optimal_costs`` from the initial state and from each observed
    state, with no certificate; None where no goal is reachable."""
    domain, goals = problem.domain, problem.goals
    base = optimal_costs(domain, problem.initial, goals)
    if all(b is None for b in base):
        return None
    per_prefix = []
    for i, obs in enumerate(problem.observations, start=1):
        suffixes = optimal_costs(domain, obs.resulting_state, goals)
        scores = [0.0 if b is None or s is None else b / (i + s)
                  for b, s in zip(base, suffixes)]
        if sum(scores) == 0:
            return None
        per_prefix.append(tuple(s / sum(scores) for s in scores))
    return tuple(per_prefix)


def traced_or_none(problem, budget=recognizer.DEFAULT_BUDGET):
    try:
        return mirror_posteriors(problem, budget=budget)
    except AllGoalsUnsolvable:
        return None


@settings(max_examples=150, deadline=None)
@given(drawn_problems(drawn_grids()))
def test_certified_sweeps_match_the_plain_sweeps_on_grids(problem):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GridDomain, "goal_costs", lambda *args: None)
        trace = traced_or_none(problem)
    expected = plain_posteriors(problem)
    assert (trace is None) == (expected is None)
    assert trace is None or trace.per_prefix == expected


@settings(max_examples=60, deadline=None)
@given(drawn_problems(drawn_sokobans()))
def test_certified_sweeps_match_the_plain_sweeps_on_sokoban(problem):
    trace = traced_or_none(problem)
    expected = plain_posteriors(problem)
    assert (trace is None) == (expected is None)
    assert trace is None or trace.per_prefix == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(drawn_problems(drawn_grids()),
                 drawn_problems(drawn_sokobans())), st.data())
def test_a_budget_the_plain_sweeps_fit_returns_the_unlimited_trace(problem,
                                                                   data):
    unlimited = traced_or_none(problem)
    assume(unlimited is not None)
    largest = max(sweep(problem.domain, state, goals).dequeued
                  for state, goals in sweep_calls(problem))
    budget = data.draw(st.integers(1, largest + 1))
    try:
        trace = mirror_posteriors(problem, budget=budget)
    except BudgetExceeded as exc:
        assert budget < largest
        assert 0 <= exc.prefix <= len(problem.observations)
    else:
        assert trace == unlimited


def test_certificates_skip_sweeps_on_sokoban_03(monkeypatch):
    # The first three observations stay on both goals' certificates and the
    # fourth leaves one of them, so the n + 1 = 5 plain sweeps shrink to the
    # initial one and one from the fourth observed state, for that goal.
    problem = load_scenario(bundled_scenario_path("bench/sokoban_03"))
    sweep, sizes = recognizer.sweep, []

    def counted(*args):
        result = sweep(*args)
        sizes.append(result.dequeued)
        return result

    monkeypatch.setattr(recognizer, "sweep", counted)
    mirror_posteriors(problem)
    assert len(problem.observations) + 1 == 5
    assert sizes == [3_636, 388]
