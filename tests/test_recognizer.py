import random

import pytest

from grexplain import (AllGoalsUnsolvable, GridSpec, GrProblem,
                       InvalidObservationChain, MalformedSpec, Observation,
                       compile_grid, mirror_posteriors)
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


def test_zero_observations_give_uniform_distribution():
    domain, initial, goals = compile_grid(GridSpec(3, 3, frozenset(), 5, (1, 9)))
    problem = GrProblem(domain, initial, tuple(goals))
    trace = mirror_posteriors(problem)
    assert trace.per_prefix == ()
    assert trace.prior == pytest.approx((0.5, 0.5))
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
    wrong_state = Observation(up, frozenset({"at-9"}))
    with pytest.raises(InvalidObservationChain):
        GrProblem(domain, initial, tuple(goals), (wrong_state,))
    inapplicable = domain.action("move-up-4-1")
    with pytest.raises(InvalidObservationChain) as err:
        GrProblem(domain, initial, tuple(goals),
                  (Observation(inapplicable, frozenset({"at-1"})),))
    assert err.value.index == 1


def test_problem_requires_goals():
    domain, initial, _ = compile_grid(GridSpec(2, 2, frozenset(), 1, (4,)))
    with pytest.raises(MalformedSpec):
        GrProblem(domain, initial, ())


def test_priors_reweight_posteriors(tiny_grid_problem):
    trace = mirror_posteriors(tiny_grid_problem, priors=[0.8, 0.2])
    # scores (1/2, 1) weighted: 0.4 vs 0.2 -> (2/3, 1/3)
    assert trace.per_prefix[0] == pytest.approx((2 / 3, 1 / 3), abs=1e-12)
    with pytest.raises(MalformedSpec):
        mirror_posteriors(tiny_grid_problem, priors=[1.0])
