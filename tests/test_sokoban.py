from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from grexplain import (MalformedSpec, PlanningTask, SokobanSpec,
                       compile_sokoban, optimal_cost, optimal_costs,
                       optimal_plan)
from grexplain.planner import sweep
from grexplain.strips import DomainDefinition, step

from conftest import applicable, apply, bfs_order


def boxes_of(state):
    return {int(f[4:]) for f in state if f.startswith("box-")}


def player_of(state):
    return next(int(f[7:]) for f in state if f.startswith("player-"))


def test_single_forced_push_costs_one():
    spec = SokobanSpec(3, 1, frozenset(), 1, (2,), (3,), ((3,),), False)
    domain, initial, goals = compile_sokoban(spec)
    plan = optimal_plan(PlanningTask(domain, initial, goals[0]))
    assert [a.name for a in plan] == ["push-right-1-2"]


def test_pair_push_moves_both_boxes_one_cell():
    spec = SokobanSpec(5, 1, frozenset(), 1, (2, 3), (4, 5), ((4, 5),), True)
    domain, initial, _ = compile_sokoban(spec)
    initial = domain.decode(initial)
    action = domain.action("push2-right-1-2")
    assert applicable(domain, initial, action)
    after = apply(domain, initial, action)
    assert boxes_of(initial) == {2, 3}
    assert boxes_of(after) == {3, 4}
    assert player_of(after) == 2


def test_single_push_blocked_by_second_box_without_multi_push():
    spec = SokobanSpec(5, 1, frozenset(), 1, (2, 3), (4, 5), ((4, 5),), False)
    domain, initial, goals = compile_sokoban(spec)
    push = domain.action("push-right-1-2")
    # destination holds the far box
    assert not applicable(domain, domain.decode(initial), push)
    assert not domain.has_action("push2-right-1-2")
    assert domain.applicable_actions(initial) == []
    assert optimal_cost(PlanningTask(domain, initial, goals[0])) is None


def test_multi_push_line_is_limited_to_two_boxes():
    spec = SokobanSpec(6, 1, frozenset(), 1, (2, 3, 4), (5, 6), ((5, 6),), True)
    domain, initial, _ = compile_sokoban(spec)
    initial = domain.decode(initial)
    # three boxes in line: neither the single nor the pair push applies
    assert not applicable(domain, initial, domain.action("push-right-1-2"))
    assert not applicable(domain, initial, domain.action("push2-right-1-2"))


@pytest.mark.parametrize("multi", [False, True])
def test_push_legality_exhaustive_enumeration(multi):
    # Every applicable push in every reachable state must target free floor;
    # checked geometrically, independent of the action encoding.
    spec = SokobanSpec(5, 5, frozenset({7}), 1, (8, 12), (20, 24),
                       ((20, 24),), multi)
    domain, initial, _ = compile_sokoban(spec)
    initial = domain.decode(initial)
    deltas = {"up": -5, "down": 5, "left": -1, "right": 1}

    seen = {initial}
    queue = deque([initial])
    pushes_checked = 0
    while queue:
        state = queue.popleft()
        boxes = boxes_of(state)
        player = player_of(state)
        occupied = boxes | {player} | set(spec.walls)
        for action in domain.applicable_actions(domain.encode(state)):
            verb, direction, src, dst = action.name.split("-")
            if verb in ("push", "push2"):
                steps = 2 if verb == "push" else 3
                target = int(src) + steps * deltas[direction]
                row_change = abs(deltas[direction]) == 5
                assert 1 <= target <= 25
                if not row_change:  # same-row pushes must not wrap
                    assert (target - 1) // 5 == (int(src) - 1) // 5
                assert target not in occupied
                pushes_checked += 1
            succ = apply(domain, state, action)
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    assert pushes_checked > 0


@pytest.mark.parametrize("multi", [False, True])
def test_successor_table_matches_apply_on_reachable_states(multi):
    spec = SokobanSpec(5, 5, frozenset({7}), 1, (8, 12), (20, 24),
                       ((20, 24),), multi)
    domain, initial, _ = compile_sokoban(spec)
    initial = domain.decode(initial)
    by_name = sorted(domain.actions, key=lambda a: a.name)
    seen = {initial}
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        bits = domain.encode(state)
        # exactly one pivot, the player's cell, holds: the one-bucket rows
        assert bin(bits & domain._pivot_mask).count("1") == 1
        moves = [a for a in by_name if applicable(domain, state, a)]
        expected = [apply(domain, state, a) for a in moves]
        assert domain.applicable_actions(bits) == moves
        row = domain.expand(domain.state_id(bits))
        assert [domain.states[succ] for succ in row] == [
            domain.encode(succ) for succ in expected]
        for succ in expected:
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    assert len(seen) > 100


def test_spec_rejects_overlapping_entities():
    with pytest.raises(MalformedSpec):
        SokobanSpec(3, 3, frozenset(), 1, (1,), (2,), ((2,),), False)
    with pytest.raises(MalformedSpec):
        SokobanSpec(3, 3, frozenset({2}), 1, (2,), (3,), ((3,),), False)
    with pytest.raises(MalformedSpec):
        SokobanSpec(3, 3, frozenset(), 1, (2,), (3,), ((9,),), False)


def test_goal_audit_reports_dead_hypotheses():
    # box in the top-left corner can never be moved; a goal wanting it on
    # another cell is a legal but unsolvable hypothesis
    spec = SokobanSpec(3, 3, frozenset(), 5, (1,), (1, 3), ((3,), (1,)), False)
    domain, initial, goals = compile_sokoban(spec)
    assert [optimal_cost(PlanningTask(domain, initial, g)) is None
            for g in goals] == [True, False]


def test_a_box_that_can_reach_no_storage_makes_a_state_hopeless():
    # 4x3 open board: a box on the right edge, cell 8, can move only up or
    # down, so it never reaches storage 1 or 9 on the left edge; a goal
    # that is not boxes alone turns the test off
    spec = SokobanSpec(4, 3, frozenset(), 7, (8,), (1, 9), ((1,), (9,)),
                       False)
    domain, initial, goals = compile_sokoban(spec)
    sid = domain.state_id(initial)
    assert domain.drop_hopeless([sid], goals) == []
    assert domain.drop_hopeless([sid], [goals[0] | initial]) == [sid]
    moved = domain.state_id(step(initial, domain.action("move-up-7-3")))
    assert domain.drop_hopeless([moved, sid], goals) == []
    assert optimal_costs(domain, initial, goals) == [None, None]
    assert sweep(domain, initial, goals).dequeued == 1


@st.composite
def pruned_searches(draw):
    """A Sokoban board of 3x3 to 5x4 cells with 1-3 boxes anywhere (so on
    dead cells too), up to three walls, 1-3 goals of 1 to as many storage
    cells as boxes, ``multi_push`` on or off, and a start state reached by
    a random walk of up to eight actions from the initial state."""
    width, height = draw(st.integers(3, 5)), draw(st.integers(3, 4))
    cells = range(1, width * height + 1)
    boxes = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3,
                          unique=True))
    player = draw(st.sampled_from([c for c in cells if c not in boxes]))
    walls = draw(st.sets(st.sampled_from(
        [c for c in cells if c not in boxes and c != player]), max_size=3))
    storage = draw(st.lists(
        st.sampled_from([c for c in cells if c not in walls]),
        min_size=1, max_size=4, unique=True))
    goals = draw(st.lists(st.lists(
        st.sampled_from(storage), min_size=1,
        max_size=min(len(boxes), len(storage)), unique=True),
        min_size=1, max_size=3))
    domain, state, goal_masks = compile_sokoban(SokobanSpec(
        width, height, walls, player, boxes, storage, goals,
        draw(st.booleans())))
    for _ in range(draw(st.integers(0, 8))):
        moves = domain.applicable_actions(state)
        if not moves:
            break
        state = step(state, draw(st.sampled_from(moves)))
    return domain, state, goal_masks


@settings(max_examples=100, deadline=None)
@given(pruned_searches())
def test_dead_square_pruning_keeps_every_search_result(case):
    """The same actions with no hopeless test give the same costs, first
    hits, chains and plans, and never dequeue fewer states; a state that
    is dropped can reach no goal."""
    domain, start, goals = case
    oracle = DomainDefinition(domain.facts, domain.actions)
    assert optimal_costs(domain, start, goals) == optimal_costs(oracle, start,
                                                                goals)
    pruned, plain = sweep(domain, start, goals), sweep(oracle, start, goals)

    def spelled(found, on):
        """The hits and chains of a sweep on ``on`` as state ints."""
        states = on.states
        return ([None if sid is None else states[sid] for sid in found.hits],
                [[states[sid] for sid in chain] for chain in found.chains()])

    assert spelled(pruned, domain) == spelled(plain, oracle)
    assert plain.dequeued >= pruned.dequeued
    # a goal's states are kept whatever other goals are pending, so the
    # sweep for all goals dequeues at least what any one goal's sweep does
    assert pruned.dequeued >= max(sweep(domain, start, [goal]).dequeued
                                  for goal in goals)

    def plan_names(on, goal):
        plan = optimal_plan(PlanningTask(on, start, goal))
        return None if plan is None else [a.name for a in plan]

    for goal in goals:
        assert plan_names(domain, goal) == plan_names(oracle, goal)
    # no state that can reach a goal is dropped: every state reachable
    # from ``start`` is priced on the oracle domain
    for state, _ in bfs_order(oracle, oracle.decode(start)):
        state = oracle.encode(state)
        if not domain.drop_hopeless([domain.state_id(state)], goals):
            assert optimal_costs(oracle, state, goals) == [None] * len(goals)
