import random

import pytest

from grexplain import (DomainDefinition, GridSpec, GroundAction, MalformedSpec,
                       NotApplicable, PlanningTask, State, applicable, apply,
                       compile_grid, optimal_plan, validate_plan)

from conftest import random_grid_spec


def act(name, pre=(), add=(), dele=()):
    return GroundAction(name, frozenset(pre), frozenset(add), frozenset(dele))


def test_applicable_subset_identity():
    a = act("move-up-7-4", pre=["at-7"], add=["at-4"], dele=["at-7"])
    assert applicable(State(["at-7"]), a)


def test_applicable_missing_precondition():
    a = act("move-up-4-1", pre=["at-4"], add=["at-1"], dele=["at-4"])
    assert not applicable(State(["at-7"]), a)


def test_applicable_agrees_with_naive_subset_oracle():
    rng = random.Random(7)
    facts = [f"f{i}" for i in range(12)]
    for _ in range(300):
        state = State(f for f in facts if rng.random() < 0.5)
        pre = frozenset(f for f in facts if rng.random() < 0.3)
        a = act("probe", pre=pre)
        naive = all(f in state for f in pre)
        assert applicable(state, a) == naive


def test_apply_single_fact_swap():
    a = act("move-up-7-4", pre=["at-7"], add=["at-4"], dele=["at-7"])
    assert apply(State(["at-7"]), a) == State(["at-4"])


def test_apply_empty_effects_is_identity():
    a = act("noop", pre=["at-7"])
    state = State(["at-7", "extra"])
    assert apply(state, a) == state


def test_apply_raises_when_not_applicable():
    a = act("move-up-4-1", pre=["at-4"], add=["at-1"], dele=["at-4"])
    with pytest.raises(NotApplicable):
        apply(State(["at-7"]), a)


def test_apply_is_pure():
    a = act("move-up-7-4", pre=["at-7"], add=["at-4"], dele=["at-7"])
    state = State(["at-7"])
    first = apply(state, a)
    second = apply(state, a)
    assert first == second
    assert state == State(["at-7"])


def test_chained_apply_matches_independent_interpreter():
    # Independent step-by-step interpreter over dict-based states.
    domain, initial, goals = compile_grid(GridSpec(4, 4, frozenset(), 13, (4,)))
    result = optimal_plan(PlanningTask(domain, initial, goals[0]))
    assert result.solved

    state = initial
    shadow = set(initial)
    for action in result.plan:
        state = apply(state, action)
        assert set(action.preconditions) <= shadow
        shadow = (shadow - set(action.delete_effects)) | set(action.add_effects)
        assert state == frozenset(shadow)


def test_frame_property_random_actions():
    rng = random.Random(11)
    facts = [f"f{i}" for i in range(10)]
    for _ in range(200):
        pre = [f for f in facts if rng.random() < 0.3]
        state = State(set(pre) | {f for f in facts if rng.random() < 0.4})
        add = frozenset(f for f in facts if rng.random() < 0.2)
        dele = frozenset(f for f in facts if rng.random() < 0.2) - add
        a = act("x", pre=pre, add=add, dele=dele)
        out = apply(state, a)
        untouched = state - add - dele
        assert untouched <= out
        assert (out - add - (state - dele)) == frozenset()


def test_validate_plan_empty_plan_goal_satisfied():
    domain, initial, goals = compile_grid(GridSpec(2, 2, frozenset(), 1, (1,)))
    assert validate_plan(domain, initial, goals[0], [])


def test_validate_plan_empty_plan_goal_unsatisfied():
    domain, initial, goals = compile_grid(GridSpec(2, 2, frozenset(), 1, (4,)))
    check = validate_plan(domain, initial, goals[0], [])
    assert not check
    assert check.reason == "goal-not-reached"


def test_validate_plan_reports_first_failing_step():
    domain, initial, goals = compile_grid(GridSpec(2, 2, frozenset(), 1, (4,)))
    bad = [domain.action("move-down-2-4")]  # not applicable from cell 1
    check = validate_plan(domain, initial, goals[0], bad)
    assert not check and check.failed_at == 0
    assert check.reason.startswith("not-applicable")


def test_planner_output_always_validates():
    rng = random.Random(23)
    solved = 0
    while solved < 20:
        spec = random_grid_spec(rng, max_side=5)
        domain, initial, goals = compile_grid(spec)
        result = optimal_plan(PlanningTask(domain, initial, goals[0]))
        if not result.solved:
            continue
        solved += 1
        assert validate_plan(domain, initial, goals[0], result.plan)


def test_domain_rejects_duplicate_action_names():
    a = act("dup", pre=["f0"])
    with pytest.raises(MalformedSpec):
        DomainDefinition(["f0"], [a, a])


def test_domain_rejects_unknown_facts():
    a = act("x", pre=["nope"])
    with pytest.raises(MalformedSpec):
        DomainDefinition(["f0"], [a])


def test_action_rejects_overlapping_effects():
    with pytest.raises(MalformedSpec):
        act("bad", add=["f0"], dele=["f0"])

