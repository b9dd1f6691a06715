import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from grexplain import (BudgetExceeded, EmptyExplanan, GridSpec, GrProblem,
                       UnsolvableGoal, answer_why, answer_why_not,
                       build_explanan, compile_grid, counterfactual_action,
                       mirror_posteriors, rank_observations, select_cf_om,
                       select_om)
from grexplain.explainer import CompleteExplanan, ExplananEntry
from grexplain.recognizer import PosteriorTrace

from conftest import applicable, validate_plan, walk


def explanan_from(entries, n=None, predicted=None, counterfactual=None):
    predicted = predicted or frozenset(e.predicted_goal for e in entries)
    counterfactual = counterfactual or frozenset(
        e.counterfactual_goal for e in entries)
    n = n or max(e.observation_index for e in entries)
    return CompleteExplanan(tuple(entries), (), n, predicted, counterfactual)


# --- generation ---------------------------------------------------------

def test_nav_entries_match_distance_ratio_oracle(nav_problem):
    # Oracle: distances d = (5, 8, 8); the observed path keeps g2 optimal, so
    # woe(g2/g) = ln((i + suffix_g) / d_g).  Walking costs for g1 grow from 7
    # by 2 per move; g3 diverges at o7 (10) and o8 (12).
    trace = mirror_posteriors(nav_problem)
    explanan = build_explanan(trace)
    expected = {
        (1, 0, 4): math.log(7 / 5),
        (1, 0, 5): math.log(9 / 5),
        (1, 0, 6): math.log(11 / 5),
        (1, 0, 7): math.log(13 / 5),
        (1, 0, 8): math.log(15 / 5),
        (1, 2, 7): math.log(10 / 8),
        (1, 2, 8): math.log(12 / 8),
    }
    got = {(e.predicted_goal, e.counterfactual_goal, e.observation_index): e.woe
           for e in explanan.entries}
    assert set(got) == set(expected)
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, abs=1e-12)
    assert explanan.excluded_observations == (1, 2, 3)


def test_anchor_sequence_from_rounded_posteriors():
    # Rounded posterior rows entered as a trace reproduce the anchor
    # weight sequence 0.28 / 0.51 / 0.69.
    rows = [(0.27, 0.36, 0.36), (0.23, 0.38, 0.38), (0.20, 0.40, 0.40)]
    per_prefix = tuple(tuple(p / sum(row) for p in row) for row in rows)
    trace = PosteriorTrace(prior=(1 / 3,) * 3, per_prefix=per_prefix,
                           predicted=frozenset({1}),
                           counterfactual=frozenset({0, 2}))
    explanan = build_explanan(trace)
    g2_over_g1 = [e.woe for e in explanan.entries
                  if e.pair == (1, 0)]
    assert g2_over_g1 == pytest.approx([0.2877, 0.5022, 0.6931], abs=1e-3)
    # the co-predicted twin is exactly tied at every prefix: no entries
    assert all(e.pair == (1, 0) for e in explanan.entries)


def test_identical_posteriors_everywhere_yield_empty_explanan():
    per_prefix = ((0.5, 0.5), (0.5, 0.5), (0.5, 0.5))
    trace = PosteriorTrace(prior=(0.5, 0.5), per_prefix=per_prefix,
                           predicted=frozenset({0}),
                           counterfactual=frozenset({1}))
    explanan = build_explanan(trace)
    assert explanan.entries == ()
    assert explanan.excluded_observations == (1, 2, 3)


def test_tiny_grid_single_entry(tiny_grid_problem):
    trace = mirror_posteriors(tiny_grid_problem)
    explanan = build_explanan(trace)
    assert len(explanan.entries) == 1
    entry = explanan.entries[0]
    assert entry.pair == (1, 0) and entry.observation_index == 1
    assert entry.woe == pytest.approx(math.log(2), abs=1e-12)


def test_empty_counterfactual_set_is_marked():
    trace = PosteriorTrace(prior=(1.0,), per_prefix=((1.0,),),
                           predicted=frozenset({0}), counterfactual=frozenset())
    explanan = build_explanan(trace)
    assert not explanan.counterfactual
    assert explanan.entries == ()


def test_coverage_matches_brute_force_enumeration():
    # one entry per (predicted, counterfactual, prefix) triple whose pair has
    # positive, distinct posteriors
    rng = random.Random(77)
    for _ in range(40):
        m = rng.randint(2, 4)
        n = rng.randint(1, 6)
        per_prefix = []
        for _ in range(n):
            weights = [rng.choice([0.0, rng.uniform(0.1, 1)]) for _ in range(m)]
            if sum(weights) == 0:
                weights[rng.randrange(m)] = 1.0
            per_prefix.append(tuple(w / sum(weights) for w in weights))
        final = per_prefix[-1]
        predicted = frozenset(
            i for i, p in enumerate(final) if p >= max(final) - 1e-9)
        counterfactual = frozenset(range(m)) - predicted
        trace = PosteriorTrace(prior=(1 / m,) * m, per_prefix=tuple(per_prefix),
                               predicted=predicted,
                               counterfactual=counterfactual)
        explanan = build_explanan(trace)
        brute = set()
        for i, dist in enumerate(per_prefix, start=1):
            for g in predicted:
                for gp in counterfactual:
                    if dist[g] > 0 and dist[gp] > 0 and dist[g] != dist[gp]:
                        brute.add((g, gp, i))
        got = [(e.predicted_goal, e.counterfactual_goal, e.observation_index)
               for e in explanan.entries]
        assert len(got) == len(set(got)) == len(brute)
        assert set(got) == brute


# --- selection ----------------------------------------------------------

def listed_explanan():
    # reference selection lists entered directly: (g2,g1) has four entries
    # rising to 0.85 at o8; (g2,g3) has a single 0.18 at o8
    entries = [
        ExplananEntry(1, 0, 5, 0.28),
        ExplananEntry(1, 0, 6, 0.51),
        ExplananEntry(1, 0, 7, 0.69),
        ExplananEntry(1, 0, 8, 0.85),
        ExplananEntry(1, 2, 8, 0.18),
    ]
    return explanan_from(entries, n=8, predicted=frozenset({1}),
                         counterfactual=frozenset({0, 2}))


def test_select_om_on_worked_example():
    answer = select_om(listed_explanan())
    assert {(e.woe, e.observation_index) for e in answer.markers} == {
        (0.85, 8), (0.18, 8)}
    assert [(e.woe, e.observation_index) for e in answer.top] == [(0.85, 8)]


def test_why_answer_filtered_to_a_goal_without_markers(nav_problem):
    # g1 (index 0) is counterfactual on nav_crossroads, so no marker is left
    explanan = build_explanan(mirror_posteriors(nav_problem))
    assert 0 not in explanan.predicted
    answer = answer_why(nav_problem, explanan, goals=[0])
    assert answer.markers == () and answer.top == () and answer.rendered == ""


def test_select_cf_om_on_worked_example():
    result = dict(select_cf_om(listed_explanan()))
    assert [(e.woe, e.observation_index) for e in result[0]] == [(0.28, 5)]
    assert [(e.woe, e.observation_index) for e in result[2]] == [(0.18, 8)]


def test_single_entry_explanan_selects_it():
    explanan = explanan_from([ExplananEntry(0, 1, 3, 0.4)])
    assert select_om(explanan).markers == explanan.entries
    assert dict(select_cf_om(explanan))[1] == explanan.entries


def test_ties_are_all_retained():
    entries = [ExplananEntry(0, 1, 2, 0.7), ExplananEntry(0, 1, 5, 0.7),
               ExplananEntry(0, 1, 3, 0.1), ExplananEntry(0, 1, 4, 0.1)]
    explanan = explanan_from(entries)
    assert {e.observation_index for e in select_om(explanan).markers} == {2, 5}
    assert {e.observation_index
            for e in dict(select_cf_om(explanan))[1]} == {3, 4}


def test_selection_agrees_with_exhaustive_scan_on_random_explanans():
    rng = random.Random(13)
    for _ in range(100):
        goals = rng.randint(2, 4)
        predicted = frozenset({0})
        counterfactual = frozenset(range(1, goals))
        entries = []
        for i in range(1, rng.randint(2, 9)):
            for gp in counterfactual:
                if rng.random() < 0.8:
                    entries.append(ExplananEntry(0, gp, i,
                                                 rng.uniform(-2, 2)))
        if not entries:
            continue
        explanan = explanan_from(entries, predicted=predicted,
                                 counterfactual=counterfactual)
        why = select_om(explanan)
        for pair in {e.pair for e in entries}:
            group = [e for e in entries if e.pair == pair]
            best = max(g.woe for g in group)
            assert {e for e in why.markers if e.pair == pair} == {
                e for e in group if e.woe == best}
        for gp, markers in select_cf_om(explanan):
            group = [e for e in entries if e.counterfactual_goal == gp]
            worst = min(g.woe for g in group)
            assert set(markers) == {e for e in group if e.woe == worst}


def test_empty_explanan_raises():
    explanan = explanan_from([ExplananEntry(0, 1, 1, 0.5)])
    empty = CompleteExplanan((), (), 3, frozenset({0}), frozenset({1}))
    with pytest.raises(EmptyExplanan):
        select_om(empty)
    with pytest.raises(EmptyExplanan):
        select_cf_om(empty)
    assert select_om(explanan)  # sanity: nonempty works


WEIGHTS = (-1.5, -0.25, 0.25, 0.7, 1.5)


@st.composite
def tied_explanans(draw):
    """An explanation list in ``build_explanan``'s order (observation, then
    predicted goal, then counterfactual goal), each key at most once, with
    weights from five values so that ties are common."""
    goals = draw(st.permutations(range(4)))
    split = draw(st.integers(1, 3))
    predicted, counterfactual = sorted(goals[:split]), sorted(goals[split:])
    n = draw(st.integers(1, 5))
    entries = [ExplananEntry(g, h, i, draw(st.sampled_from(WEIGHTS)))
               for i in range(1, n + 1) for g in predicted
               for h in counterfactual if draw(st.booleans())]
    return CompleteExplanan(tuple(entries), (), n, frozenset(predicted),
                            frozenset(counterfactual))


@settings(max_examples=300, deadline=None)
@given(tied_explanans())
def test_markers_and_ranks_keep_every_tie(explanan):
    entries, n = explanan.entries, explanan.observation_count
    weights = {i: [e.woe for e in entries if e.observation_index == i]
               for i in range(1, n + 1)}

    def dense(scores, beats):  # rank 1 + the distinct scores that beat it
        return [(i, 1 + len({s for s in scores.values() if beats(s, scores[i])})
                 if i in scores else 0) for i in range(1, n + 1)]

    why, whynot = rank_observations(explanan)
    assert list(why.items()) == dense(
        {i: max(w) for i, w in weights.items() if w}, lambda s, t: s > t)
    assert list(whynot.items()) == dense(
        {i: min(w) for i, w in weights.items() if w}, lambda s, t: s < t)
    if not entries:
        for select in (select_om, select_cf_om):
            with pytest.raises(EmptyExplanan):
                select(explanan)
        return

    answer = select_om(explanan)
    pairs = dict.fromkeys(e.pair for e in entries)
    assert list(answer.markers) == [
        e for pair in pairs for e in entries if e.pair == pair
        and all(e.woe >= x.woe for x in entries if x.pair == pair)]
    assert list(answer.top) == [e for e in answer.markers
                                if all(e.woe >= x.woe for x in answer.markers)]
    assert select_cf_om(explanan) == [
        (h, tuple(e for e in entries if e.counterfactual_goal == h and all(
            e.woe <= x.woe for x in entries if x.counterfactual_goal == h)))
        for h in sorted(explanan.counterfactual)
        if any(e.counterfactual_goal == h for e in entries)]


# --- counterfactual actions ---------------------------------------------

def test_nav_counterfactual_actions(nav_problem):
    trace = mirror_posteriors(nav_problem)
    explanan = build_explanan(trace)
    markers = dict(select_cf_om(explanan))
    g1_marker = markers[0][0]
    g3_marker = markers[2][0]
    assert g1_marker.observation_index == 4
    assert counterfactual_action(nav_problem, g1_marker, 0).name == "move-up-23-14"
    assert g3_marker.observation_index == 7
    assert counterfactual_action(nav_problem, g3_marker, 2).name == "move-right-26-27"


def test_counterfactual_action_is_applicable_and_starts_valid_plan(nav_problem):
    from grexplain import PlanningTask, optimal_plan

    trace = mirror_posteriors(nav_problem)
    explanan = build_explanan(trace)
    for g_prime, markers in select_cf_om(explanan):
        marker = markers[0]
        action = counterfactual_action(nav_problem, marker, g_prime)
        state = nav_problem.state_before(marker.observation_index)
        assert applicable(nav_problem.domain,
                          nav_problem.domain.decode(state), action)
        goal = nav_problem.goals[g_prime]
        plan = optimal_plan(PlanningTask(nav_problem.domain, state, goal))
        assert plan[0] == action
        assert validate_plan(nav_problem.domain, state, goal, plan)
    for index in (0, len(nav_problem.observations) + 1):
        with pytest.raises(IndexError, match=f"^observation index {index} "
                           "out of range$"):
            nav_problem.state_before(index)


def test_counterfactual_action_goal_already_reached():
    domain, initial, goals = compile_grid(GridSpec(3, 3, frozenset(), 7, (7, 1)))
    obs = walk(domain, initial, ["move-up-7-4"])
    problem = GrProblem(domain, initial, tuple(goals), obs)
    marker = ExplananEntry(1, 0, 1, 0.5)
    assert counterfactual_action(problem, marker, 0) is None


def test_counterfactual_action_unreachable_goal():
    spec = GridSpec(3, 3, frozenset({6, 8}), 1, (9, 3))
    domain, initial, goals = compile_grid(spec)
    obs = walk(domain, initial, ["move-right-1-2"])
    problem = GrProblem(domain, initial, tuple(goals), obs)
    marker = ExplananEntry(1, 0, 1, 0.5)
    with pytest.raises(UnsolvableGoal):
        counterfactual_action(problem, marker, 0)


def test_an_exhausted_counterfactual_search_names_its_goal_and_marker(
        nav_problem):
    """Recognition fits the default budget; planning g1's counterfactual
    action at budget 1 does not, and the error says which search ran out."""
    explanan = build_explanan(mirror_posteriors(nav_problem))
    marker = answer_why_not(nav_problem, explanan).selections[0].marker
    with pytest.raises(BudgetExceeded) as raised:
        answer_why_not(nav_problem, explanan, budget=1)
    assert str(raised.value) == (
        "expansion budget of 1 nodes exceeded planning a counterfactual "
        f"action toward g1 from the state before observation "
        f"{marker.observation_index}")
    assert raised.value.prefix == marker.observation_index - 1


# --- ranking ------------------------------------------------------------

def test_sokoban_pairs_ranking_shape(sokoban_problem):
    trace = mirror_posteriors(sokoban_problem)
    explanan = build_explanan(trace)
    why, whynot = rank_observations(explanan)
    assert why == {1: 0, 2: 7, 3: 6, 4: 5, 5: 4, 6: 3, 7: 2, 8: 1}
    assert whynot[1] == 0
    assert min(r for i, r in whynot.items() if r > 0) == 1


def test_single_observation_ranks_first_in_both():
    explanan = explanan_from([ExplananEntry(0, 1, 1, 0.3)])
    why, whynot = rank_observations(explanan)
    assert why == {1: 1} and whynot == {1: 1}


def test_rankings_reverse_for_single_pair_distinct_weights():
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randint(2, 10)
        woes = rng.sample(range(1000), n)
        entries = [ExplananEntry(0, 1, i + 1, w / 100)
                   for i, w in enumerate(woes)]
        why, whynot = rank_observations(explanan_from(entries))
        k = len(entries)
        for i in range(1, k + 1):
            assert why[i] + whynot[i] == k + 1


def test_excluded_observations_rank_zero():
    entries = [ExplananEntry(0, 1, 2, 0.4), ExplananEntry(0, 1, 4, 0.9)]
    why, whynot = rank_observations(explanan_from(entries, n=5))
    assert why == {1: 0, 2: 2, 3: 0, 4: 1, 5: 0}
    assert whynot == {1: 0, 2: 1, 3: 0, 4: 2, 5: 0}


def test_rank_ties_share_a_dense_rank():
    entries = [ExplananEntry(0, 1, 1, 0.5), ExplananEntry(0, 1, 2, 0.5),
               ExplananEntry(0, 1, 3, 0.9)]
    why, whynot = rank_observations(explanan_from(entries))
    assert why == {1: 2, 2: 2, 3: 1}
    assert whynot == {1: 1, 2: 1, 3: 2}


def test_multi_pair_aggregation_uses_max_for_why_min_for_whynot():
    entries = [ExplananEntry(0, 1, 1, 0.9), ExplananEntry(0, 2, 1, 0.1),
               ExplananEntry(0, 1, 2, 0.5), ExplananEntry(0, 2, 2, 0.4)]
    why, whynot = rank_observations(
        explanan_from(entries, predicted=frozenset({0}),
                      counterfactual=frozenset({1, 2})))
    assert why == {1: 1, 2: 2}      # max per obs: 0.9 vs 0.5
    assert whynot == {1: 1, 2: 2}   # min per obs: 0.1 vs 0.4
