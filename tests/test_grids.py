import pytest
from hypothesis import given, settings, strategies as st

from grexplain import (GridSpec, MalformedSpec, PlanningTask, SokobanSpec,
                       compile_grid, compile_sokoban, optimal_cost)
from grexplain.grids import (DIRECTIONS, MAX_CELLS, offset, parse_fact,
                             parse_move)


def test_two_by_two_has_eight_moves():
    domain, _, _ = compile_grid(GridSpec(2, 2, frozenset(), 1, (4,)))
    assert len(domain.actions) == 8  # hand count: 4 cells x 2 neighbours


def test_nine_by_five_counts():
    domain, initial, goals = compile_grid(GridSpec(9, 5, frozenset(), 20, (5,)))
    assert len(domain.facts) == 45
    # directed moves: 2 * (w*(h-1) + h*(w-1)) = 2 * (36 + 40)
    assert len(domain.actions) == 152
    assert domain.decode(initial) == frozenset({"at-20"})
    assert [domain.decode(g) for g in goals] == [frozenset({"at-5"})]


def test_single_cell_grid_has_no_actions():
    domain, _, _ = compile_grid(GridSpec(1, 1, frozenset(), 1, (1,)))
    assert len(domain.facts) == 1
    assert len(domain.actions) == 0


def test_blocked_cells_get_facts_but_no_moves():
    domain, _, _ = compile_grid(GridSpec(3, 1, frozenset({2}), 1, (1,)))
    assert "at-2" in domain.facts
    assert not any("-2" == a.name[-2:] or "-2-" in a.name for a in domain.actions)


def test_every_reachable_grid_state_fills_its_row_from_one_bucket():
    """Exactly one pivot, the agent's cell, holds in every reachable state,
    so the row's candidates are that bucket itself, not a merged copy."""
    domain, initial, _ = compile_grid(
        GridSpec(5, 4, frozenset({7, 8, 14}), 1, (20,)))
    found = [domain.state_id(initial)]
    for sid in found:
        bits = domain.states[sid]
        pivots = bits & domain._pivot_mask
        assert bin(pivots).count("1") == 1
        assert (domain._candidates(bits)
                is domain._buckets[pivots.bit_length() - 1])
        found += [succ for succ in domain.expand(sid) if succ not in found]
    assert len(found) == 17


@st.composite
def boards(draw):
    """A compiled grid, or a Sokoban board with ``multi_push`` on or off,
    with its width and height."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = range(1, width * height + 1)
    free = draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
    blocked = frozenset(cells) - set(free)
    if draw(st.booleans()):
        spec = GridSpec(width, height, blocked, free[0], (free[-1],))
        return compile_grid(spec)[0], width, height
    spec = SokobanSpec(width, height, blocked, free[0], tuple(free[1:3]),
                       tuple(free[1:3]), (tuple(free[1:3]),),
                       draw(st.booleans()))
    return compile_sokoban(spec)[0], width, height


@settings(max_examples=80, deadline=None)
@given(boards())
def test_board_names_parse_to_adjacent_cells_on_the_board(board):
    domain, width, height = board
    for action in domain.actions:
        verb, direction, src, dst = parse_move(action.name)
        assert verb in ("move", "push", "push2")
        assert offset(src, direction, width, height) == dst
    for fact in domain.facts:
        kind, cell = parse_fact(fact)
        assert kind in ("at", "player", "box", "clear")
        assert 1 <= cell <= width * height


def test_parse_move_rejects_names_that_are_not_board_moves():
    for name in ("cook", "move-up-1", "jump-up-1-2", "move-north-1-2",
                 "move-up-a-2", "move-up-1-2-3"):
        assert parse_move(name) is None


def test_offset_stops_at_board_edges():
    assert {d: offset(1, d, 3, 3) for d in DIRECTIONS} == {
        "up": None, "down": 4, "left": None, "right": 2}
    assert {d: offset(9, d, 3, 3) for d in DIRECTIONS} == {
        "up": 6, "down": None, "left": 8, "right": None}
    assert offset(3, "right", 3, 3) is None  # no wrap onto the next row
    assert offset(4, "left", 3, 3) is None
    assert all(offset(5, d, 3, 3) is not None for d in DIRECTIONS)
    assert offset(1, "right", 3, 3, steps=2) == 3
    assert offset(1, "right", 3, 3, steps=3) is None


def test_malformed_specs_rejected():
    with pytest.raises(MalformedSpec):
        GridSpec(0, 3, frozenset(), 1, (2,))
    with pytest.raises(MalformedSpec):
        GridSpec(3, 3, frozenset(), 10, (1,))  # start out of range
    with pytest.raises(MalformedSpec):
        GridSpec(3, 3, frozenset({5}), 5, (1,))  # start blocked
    with pytest.raises(MalformedSpec):
        GridSpec(3, 3, frozenset({9}), 1, (9,))  # goal blocked
    with pytest.raises(MalformedSpec):
        GridSpec(3, 3, frozenset({99}), 1, (9,))  # block out of range


def test_boards_past_the_cell_limit_are_rejected_before_compiling():
    huge = 10 ** 6
    with pytest.raises(MalformedSpec, match=rf"^grid of width {huge} and "
                       rf"height {huge} has {huge * huge} cells, more than "
                       rf"the limit of {MAX_CELLS}$"):
        GridSpec(huge, huge, frozenset(), 1, (2,))
    with pytest.raises(MalformedSpec, match=rf"^board of width {huge} and "
                       rf"height 3 has {3 * huge} cells, more than the limit "
                       rf"of {MAX_CELLS}$"):
        SokobanSpec(huge, 3, frozenset(), 1, (2,), (3,), ((3,),), False)
    with pytest.raises(MalformedSpec, match="more than the limit"):
        GridSpec(MAX_CELLS + 1, 1, frozenset(), 1, (2,))
    GridSpec(MAX_CELLS, 1, frozenset(), 1, (2,))  # the limit itself is allowed
    SokobanSpec(64, 64, frozenset(), 1, (2,), (3,), ((3,),), False)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_grid_moves_are_every_offset_step_in_cell_and_direction_order(
        width, height, data):
    cells = range(1, width * height + 1)
    blocked = data.draw(st.frozensets(st.sampled_from(cells)))
    free = [c for c in cells if c not in blocked]
    if not free:
        return
    domain, _, _ = compile_grid(GridSpec(width, height, blocked, free[0]))
    expected = [f"move-{d}-{c}-{offset(c, d, width, height)}"
                for c in free for d in DIRECTIONS
                if offset(c, d, width, height) not in (None, *blocked)]
    assert [a.name for a in domain.actions] == expected


def test_nav_reconstruction_compiles_and_goals_solvable(nav_problem):
    domain = nav_problem.domain
    assert len(domain.facts) == 45
    assert nav_problem.board.width == 9
    costs = [optimal_cost(PlanningTask(domain, nav_problem.initial, g))
             for g in nav_problem.goals]
    assert costs == [5, 8, 8]


def test_audit_flags_unreachable_goals():
    spec = GridSpec(3, 3, frozenset({6, 8}), 1, (9, 3))
    domain, initial, goals = compile_grid(spec)
    assert [optimal_cost(PlanningTask(domain, initial, g)) is None
            for g in goals] == [True, False]
