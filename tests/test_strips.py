import random

import pytest
from hypothesis import example, given, settings, strategies as st

from grexplain import (DomainDefinition, GridSpec, GroundAction, MalformedSpec,
                       PlanningTask, SokobanSpec, compile_grid,
                       compile_sokoban, optimal_plan)
from grexplain.grids import DIRECTIONS, offset, parse_move
from grexplain.scenario import (ScenarioFile, StripsListing, _compile,
                                build_problem)
from grexplain.strips import step

from conftest import (applicable, apply, random_grid_spec, strips_domain,
                      validate_plan)

MOVE_7_4 = ("move-up-7-4", ["at-7"], ["at-4"], ["at-7"])


def test_applicable_subset_identity():
    domain = strips_domain(["at-4", "at-7"], [MOVE_7_4])
    (action,) = domain.actions
    assert domain.applicable_actions(domain.encode(["at-7"])) == [action]
    assert step(domain.encode(["at-7"]), action) is not None


def test_applicable_missing_precondition():
    domain = strips_domain(["at-1", "at-4", "at-7"],
                           [("move-up-4-1", ["at-4"], ["at-1"], ["at-4"])])
    assert domain.applicable_actions(domain.encode(["at-7"])) == []
    assert step(domain.encode(["at-7"]), domain.actions[0]) is None


def test_applicable_agrees_with_naive_subset_oracle():
    rng = random.Random(7)
    facts = [f"f{i}" for i in range(12)]
    for _ in range(300):
        state = frozenset(f for f in facts if rng.random() < 0.5)
        pre = frozenset(f for f in facts if rng.random() < 0.3)
        domain = strips_domain(facts, [("probe", pre, (), ())])
        naive = all(f in state for f in pre)
        assert bool(domain.applicable_actions(domain.encode(state))) == naive
        assert (step(domain.encode(state), domain.actions[0])
                is not None) == naive


def test_apply_single_fact_swap():
    domain = strips_domain(["at-4", "at-7"], [MOVE_7_4])
    after = step(domain.encode(["at-7"]), domain.actions[0])
    assert domain.decode(after) == frozenset(["at-4"])


def test_apply_empty_effects_is_identity():
    domain = strips_domain(["at-7", "extra"], [("noop", ["at-7"], (), ())])
    state = domain.encode(["at-7", "extra"])
    assert step(state, domain.actions[0]) == state


def test_apply_is_pure():
    domain = strips_domain(["at-4", "at-7"], [MOVE_7_4])
    (action,) = domain.actions
    state = domain.encode(["at-7"])
    assert step(state, action) == step(state, action)
    assert action == GroundAction("move-up-7-4", 0b10, 0b01, 0b10)


def test_chained_apply_matches_independent_interpreter():
    # Independent step-by-step interpreter over set-based states.
    domain, initial, goals = compile_grid(GridSpec(4, 4, frozenset(), 13, (4,)))
    plan = optimal_plan(PlanningTask(domain, initial, goals[0]))
    assert plan is not None

    state = initial
    shadow = set(domain.decode(initial))
    for action in plan:
        state = step(state, action)
        assert domain.decode(action.preconditions) <= shadow
        shadow = ((shadow - domain.decode(action.delete_effects))
                  | domain.decode(action.add_effects))
        assert domain.decode(state) == frozenset(shadow)


def test_frame_property_random_actions():
    rng = random.Random(11)
    facts = [f"f{i}" for i in range(10)]
    for _ in range(200):
        pre = [f for f in facts if rng.random() < 0.3]
        state = frozenset(set(pre) | {f for f in facts if rng.random() < 0.4})
        add = frozenset(f for f in facts if rng.random() < 0.2)
        dele = frozenset(f for f in facts if rng.random() < 0.2) - add
        domain = strips_domain(facts, [("x", pre, add, dele)])
        out = domain.decode(step(domain.encode(state), domain.actions[0]))
        untouched = state - add - dele
        assert untouched <= out
        assert (out - add - (state - dele)) == frozenset()
        assert out == apply(domain, state, domain.actions[0])


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
    a = GroundAction("dup", 0b1, 0, 0)
    with pytest.raises(MalformedSpec):
        DomainDefinition(["f0"], [a, a])


def test_domain_rejects_unknown_facts():
    listing = StripsListing(facts=("f0",), actions=(("x", ("nope",), (), ()),),
                            initial=frozenset(), goals=(frozenset(),))
    with pytest.raises(MalformedSpec, match=r"action x: .*\['nope'\]"):
        build_problem(ScenarioFile("strips", listing, ()))
    with pytest.raises(MalformedSpec, match="action x: .*outside"):
        DomainDefinition(["f0"], [GroundAction("x", 0b10, 0, 0)])


def test_action_rejects_overlapping_effects():
    with pytest.raises(MalformedSpec, match=r"overlap: \['f1'\]"):
        DomainDefinition(["f0", "f1"], [GroundAction("bad", 0, 0b11, 0b10)])


OUTSIDE = "a mask bit lies outside the 2 declared facts"


@pytest.mark.parametrize("facts, rows, message", [
    # One action, two faults: the range check runs before the overlap one.
    (["f0", "f1"], [("x", 0b100, 0b11, 0b10)], f"action x: {OUTSIDE}"),
    # Actions are checked in list order, each fully before the next.
    (["f0", "f1"], [("a", 0, 0b11, 0b10), ("a", 0b1, 0, 0)],
     "action a: add and delete effects overlap: ['f1']"),
    (["f0", "f1"], [("r", 0b1000, 0, 0), ("o", 0, 0b1, 0b1)],
     f"action r: {OUTSIDE}"),
    # A repeated name is found before that action's own masks are read.
    (["f0", "f1"], [("a", 0b1, 0, 0), ("b", 0, 0, 0), ("a", 0b1000, 0, 0)],
     "duplicate action name: a"),
    # The facts are checked before any action.
    (["f0", "f0"], [("x", 0b100, 0b1, 0b1)],
     "duplicate facts in domain universe"),
])
def test_domain_checks_report_the_first_fault_in_a_fixed_order(facts, rows,
                                                                message):
    for actions in (rows, [GroundAction(*row) for row in rows]):
        with pytest.raises(MalformedSpec) as caught:
            DomainDefinition(facts, actions)
        assert str(caught.value) == message


@st.composite
def strips_domains(draw):
    """A small raw-STRIPS domain, declared out of name order, that holds a
    delete effect outside the preconditions, two actions sharing a one-fact
    precondition (so a pivot fact) and perhaps a condition-free action, plus
    a few fact-set states to expand."""
    facts = [f"f{i}" for i in range(draw(st.integers(2, 6)))]
    subsets = st.frozensets(st.sampled_from(facts))

    def effects():
        add = draw(subsets)
        return add, draw(subsets) - add

    specs = [(draw(subsets), *effects())
             for _ in range(draw(st.integers(0, 5)))]
    if draw(st.booleans()):
        specs.append((frozenset(), *effects()))
    pre, dropped = draw(st.lists(st.sampled_from(facts), min_size=2,
                                 max_size=2, unique=True))
    specs.append(({pre}, draw(subsets) - {dropped}, {dropped}))
    shared = draw(st.sampled_from(facts))
    specs += [({shared}, *effects()), ({shared}, *effects())]
    names = draw(st.lists(st.text("abxyz-", min_size=1, max_size=4),
                          min_size=len(specs), max_size=len(specs),
                          unique=True))
    domain = strips_domain(facts, [(n, *sets) for n, sets in zip(names, specs)])
    states = draw(st.lists(subsets, min_size=1, max_size=6))
    return domain, domain.actions, states


def fixed_case(facts, rows, states):
    """A ``strips_domains`` case built from given rows and fact-set states."""
    domain = strips_domain(facts, rows)
    return domain, domain.actions, [frozenset(s) for s in states]


# Pivots a and b both hold in {a, b, c}: bucket a holds "mid" and bucket b
# holds "first" and "last", so the row needs the merge and the name sort.
TWO_PIVOTS = fixed_case(["a", "b", "c"], [
    ("mid", ["a"], ["c"], ["a"]), ("first", ["b", "c"], ["a"], ["b"]),
    ("last", ["b"], [], [])], [["a", "b", "c"], ["a", "b"], ["b", "c"], []])
# A condition-free action is a candidate in every state, pivot or none.
CONDITION_FREE = fixed_case(["a", "b", "c"], [
    ("go", ["a"], ["c"], []), ("free", [], ["b"], ["a"]),
    ("after", ["c"], ["a"], ["c"])], [["a"], ["c"], ["a", "c"], []])


@settings(max_examples=200, deadline=None)
@given(strips_domains())
@example(TWO_PIVOTS)
@example(CONDITION_FREE)
def test_successor_table_matches_apply_oracle(case):
    domain, actions, states = case
    for state in states:  # repeats read the table
        moves = [a for a in sorted(actions, key=lambda a: a.name)
                 if applicable(domain, state, a)]
        bits = domain.encode(state)
        assert domain.applicable_actions(bits) == moves
        row = domain.expand(domain.state_id(bits))
        assert [domain.states[succ] for succ in row] == [
            domain.encode(apply(domain, state, a)) for a in moves]


@settings(max_examples=200, deadline=None)
@given(strips_domains())
@example(TWO_PIVOTS)
@example(CONDITION_FREE)
def test_each_action_is_filed_under_the_pivot_the_rule_names(case):
    """The module docstring's rule, computed from decoded fact sets: an
    action's pivot is the first declared fact of its precondition, and
    condition-free actions are filed apart; each list is in name order."""
    domain, actions, _ = case
    expected, free = {}, []
    for action in sorted(actions, key=lambda a: a.name):
        pre = domain.decode(action.preconditions)
        if pre:
            pivot = min(domain.facts.index(fact) for fact in pre)
            expected.setdefault(pivot, []).append(action.name)
        else:
            free.append(action.name)
    filed = {pivot: [name for *_, name in bucket]
             for pivot, bucket in domain._buckets.items()}
    assert filed == expected
    assert [name for *_, name in domain._unconditional] == free
    for entries in [*domain._buckets.values(), domain._unconditional]:
        for pre, keep, add, name in entries:
            action = domain.action(name)
            assert (pre, keep, add) == (action.preconditions,
                                        ~action.delete_effects,
                                        action.add_effects)


def test_encode_names_undeclared_facts():
    domain = strips_domain(["a", "b"], [("go", ["a"], ["b"], ())])
    assert domain.encode(["a", "b"]) == 0b11
    with pytest.raises(MalformedSpec, match=r"\['zzz'\]"):
        domain.encode(["a", "zzz"])


def named_facts(kind, name, width, height):
    """(pre, add, del) fact sets a board action name implies, read from the
    ``grids`` and ``sokoban`` module docstrings rather than the compilers."""
    verb, direction, cell, nbr = parse_move(name)
    assert nbr == offset(cell, direction, width, height), name
    if kind == "grid":
        return {f"at-{cell}"}, {f"at-{nbr}"}, {f"at-{cell}"}
    beyond = offset(cell, direction, width, height, 2)
    far = offset(cell, direction, width, height, 3)
    if verb == "move":
        pre = {f"player-{cell}", f"clear-{nbr}"}
        return pre, {f"player-{nbr}", f"clear-{cell}"}, pre
    if verb == "push":
        pre = {f"player-{cell}", f"box-{nbr}", f"clear-{beyond}"}
        return pre, {f"player-{nbr}", f"box-{beyond}", f"clear-{cell}"}, pre
    return ({f"player-{cell}", f"box-{nbr}", f"box-{beyond}", f"clear-{far}"},
            {f"player-{nbr}", f"box-{far}", f"clear-{cell}"},
            {f"player-{cell}", f"box-{nbr}", f"clear-{far}"})


@st.composite
def compiled_boards(draw):
    """A drawn grid with goal cells, or a drawn Sokoban board with boxes,
    storage, goal assignments and ``multi_push`` on or off, as (kind, spec,
    floor cells, domain, initial state, goal masks)."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = list(range(1, width * height + 1))
    start = draw(st.sampled_from(cells))
    walls = draw(st.frozensets(st.sampled_from(cells))) - {start}
    floor = [c for c in cells if c not in walls]
    if draw(st.booleans()):
        goals = draw(st.lists(st.sampled_from(floor), min_size=1, max_size=3))
        spec = GridSpec(width, height, walls, start, tuple(goals))
        return ("grid", spec, floor, *compile_grid(spec))
    boxes = tuple(c for c in floor if c != start and draw(st.booleans()))
    storage = tuple(c for c in floor if draw(st.booleans()))
    assignments = draw(st.lists(
        st.lists(st.sampled_from(storage), min_size=1, max_size=len(boxes),
                 unique=True), max_size=3)) if storage and boxes else []
    spec = SokobanSpec(width, height, walls, start, boxes, storage,
                       assignments, draw(st.booleans()))
    return ("sokoban", spec, floor, *compile_sokoban(spec))


@settings(max_examples=150, deadline=None)
@given(compiled_boards(), st.data())
def test_compiled_masks_match_the_facts_action_names_imply(board, data):
    kind, spec, floor, domain, initial, goals = board
    for action in domain.actions:
        decoded = tuple(set(domain.decode(mask)) for mask in (
            action.preconditions, action.add_effects, action.delete_effects))
        assert decoded == named_facts(kind, action.name, spec.width,
                                      spec.height)
    if kind == "grid":
        assert domain.decode(initial) == {f"at-{spec.start}"}
        assert [domain.decode(g) for g in goals] == [
            {f"at-{cell}"} for cell in spec.goal_cells]
    else:
        occupied = {spec.player, *spec.boxes}
        assert domain.decode(initial) == {
            f"player-{spec.player}", *(f"box-{b}" for b in spec.boxes),
            *(f"clear-{c}" for c in floor if c not in occupied)}
        assert [domain.decode(g) for g in goals] == [
            {f"box-{cell}" for cell in assignment}
            for assignment in spec.goal_assignments]
    facts = data.draw(st.frozensets(st.sampled_from(domain.facts)))
    assert domain.decode(domain.encode(facts)) == facts


def eager_board_actions(kind, spec):
    """A board's actions as ``GroundAction`` values in compile order, built
    eagerly from ``offset`` and the bit layout the compilers' docstrings
    give: the reference the lean compile must equal."""
    width, height = spec.width, spec.height
    walls = spec.blocked if kind == "grid" else spec.walls
    floor = [c for c in range(1, width * height + 1) if c not in walls]

    def toward(cell, direction, steps):
        dest = offset(cell, direction, width, height, steps)
        return None if dest in walls else dest

    if kind == "grid":
        return [GroundAction(f"move-{d}-{c}-{n}", 1 << (c - 1), 1 << (n - 1),
                             1 << (c - 1))
                for c in floor for d in DIRECTIONS
                for n in [toward(c, d, 1)] if n is not None]
    bit = {c: i for i, c in enumerate(floor)}
    player, box, clear = (
        lambda c, g=group: 1 << (g * len(floor) + bit[c]) for group in range(3))
    actions = []
    for c in floor:
        for d in DIRECTIONS:
            n, b, f = (toward(c, d, steps) for steps in (1, 2, 3))
            if n is None:
                continue
            actions.append(GroundAction(f"move-{d}-{c}-{n}", player(c) | clear(n),
                                        player(n) | clear(c), player(c) | clear(n)))
            if b is None:
                continue
            pre = player(c) | box(n) | clear(b)
            actions.append(GroundAction(f"push-{d}-{c}-{n}", pre,
                                        player(n) | box(b) | clear(c), pre))
            if f is None or not spec.multi_push:
                continue
            actions.append(GroundAction(
                f"push2-{d}-{c}-{n}", player(c) | box(n) | box(b) | clear(f),
                player(n) | box(f) | clear(c), player(c) | box(n) | clear(f)))
    return actions


@st.composite
def small_boards(draw):
    """A grid, or a Sokoban board of at most three boxes with ``multi_push``
    on or off, small enough to walk every reachable state: (kind, spec)."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = range(1, width * height + 1)
    free = draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
    walls = frozenset(cells) - set(free)
    if draw(st.booleans()):
        return "grid", GridSpec(width, height, walls, free[0])
    boxes = tuple(free[1:1 + draw(st.integers(0, 3))])
    return "sokoban", SokobanSpec(width, height, walls, free[0], boxes,
                                  boxes, (), draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(small_boards())
def test_lean_compile_equals_an_eager_reference_compile(board):
    kind, spec = board
    domain, initial, _ = (compile_grid if kind == "grid"
                          else compile_sokoban)(spec)
    reference = eager_board_actions(kind, spec)
    by_name = sorted(reference, key=lambda a: a.name)
    for bucket in [*domain._buckets.values(), domain._unconditional]:
        names = [name for *_, name in bucket]
        assert names == sorted(names)
    found, seen = [initial], {initial}
    for state in found:
        moves = [a for a in by_name if a.preconditions & state
                 == a.preconditions]
        assert domain.applicable_actions(state) == moves
        row = domain.expand(domain.state_id(state))
        succs = [step(state, a) for a in moves]
        assert [domain.states[sid] for sid in row] == succs
        found += [s for s in succs if s not in seen]
        seen.update(succs)
    # Read after the walk, so ``actions`` is built from values that
    # ``applicable_actions`` already handed out.
    assert domain.actions == tuple(reference)
    assert [a.name for a in domain.actions] == [a.name for a in reference]
    for action in domain.actions:
        assert domain.action(action.name) is action
    for state in found:
        for action in domain.applicable_actions(state):
            assert domain.action(action.name) is action


def test_a_compile_builds_no_action_value(monkeypatch):
    """Grid, Sokoban and raw-STRIPS compiles file plain tuples; an action
    value is built only when it is read, then read again as the same
    object."""
    listing = StripsListing(facts=("a", "b"), actions=(
        ("go", ("a",), ("b",), ("a",)), ("back", ("b",), ("a",), ("b",))),
        initial=frozenset({"a"}), goals=(frozenset({"b"}),))
    compiles = [
        lambda: compile_grid(GridSpec(4, 3, frozenset({6}), 1, (12,))),
        lambda: compile_sokoban(SokobanSpec(5, 1, frozenset(), 1, (2, 3),
                                            (4, 5), ((4, 5),), True)),
        lambda: _compile(ScenarioFile("strips", listing, ())),
    ]

    def refuse(*args):
        raise AssertionError("an action value was built")

    for compile_ in compiles:
        monkeypatch.setattr(GroundAction, "__new__", refuse)
        domain, initial, _ = compile_()
        domain.expand(domain.state_id(initial))
        monkeypatch.undo()
        (first, *_) = domain.applicable_actions(initial)
        assert type(first) is GroundAction
        assert domain.action(first.name) is first
        assert domain.actions[domain.actions.index(first)] is first
