import random

import pytest
from hypothesis import given, settings, strategies as st

from grexplain import (DomainDefinition, GridSpec, GroundAction, MalformedSpec,
                       NotApplicable, PlanningTask, State, applicable, apply,
                       compile_grid, optimal_plan)

from conftest import random_grid_spec, validate_plan


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
    plan = optimal_plan(PlanningTask(domain, initial, goals[0]))
    assert plan is not None

    state = initial
    shadow = set(initial)
    for action in plan:
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
        plan = optimal_plan(PlanningTask(domain, initial, goals[0]))
        if plan is None:
            continue
        solved += 1
        assert validate_plan(domain, initial, goals[0], plan)


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


@st.composite
def strips_domains(draw):
    """A small raw-STRIPS domain, declared out of name order, that always
    holds a condition-free action, a delete effect outside the preconditions
    and two actions sharing a one-fact precondition (so a pivot fact), plus
    a few fact-set states to expand."""
    facts = [f"f{i}" for i in range(draw(st.integers(2, 6)))]
    subsets = st.frozensets(st.sampled_from(facts))

    def effects():
        add = draw(subsets)
        return add, draw(subsets) - add

    specs = [(draw(subsets), *effects())
             for _ in range(draw(st.integers(0, 5)))]
    specs.append((frozenset(), *effects()))
    pre, dropped = draw(st.lists(st.sampled_from(facts), min_size=2,
                                 max_size=2, unique=True))
    specs.append(({pre}, draw(subsets) - {dropped}, {dropped}))
    shared = draw(st.sampled_from(facts))
    specs += [({shared}, *effects()), ({shared}, *effects())]
    names = draw(st.lists(st.text("abxyz-", min_size=1, max_size=4),
                          min_size=len(specs), max_size=len(specs),
                          unique=True))
    actions = [act(n, pre, add, dele)
               for n, (pre, add, dele) in zip(names, specs)]
    states = draw(st.lists(subsets, min_size=1, max_size=6))
    return DomainDefinition(facts, actions), actions, states


@settings(max_examples=200, deadline=None)
@given(strips_domains())
def test_successor_table_matches_apply_oracle(case):
    domain, actions, states = case
    for state in states:  # repeats read the table
        expected = [(a, domain.encode(apply(state, a)))
                    for a in sorted(actions, key=lambda a: a.name)
                    if applicable(state, a)]
        row = domain.expand(domain.state_id(domain.encode(state)))
        assert [(a, domain.states[succ]) for a, succ in row] == expected


def test_encode_names_undeclared_facts():
    domain = DomainDefinition(["a", "b"], [act("go", pre=["a"], add=["b"])])
    assert domain.encode(["a", "b"]) == 0b11
    with pytest.raises(MalformedSpec, match=r"\['zzz'\]"):
        domain.encode(["a", "zzz"])
