from collections import deque

import pytest

from grexplain import (MalformedSpec, PlanningTask, SokobanSpec,
                       compile_sokoban, optimal_cost, optimal_plan)

from conftest import applicable, apply


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
