import pytest

from grexplain import (GridSpec, MalformedSpec, NotAdjacent, PlanningTask,
                       cell_move_name, compile_grid, optimal_cost)
from grexplain.grids import grid_neighbors


def test_two_by_two_has_eight_moves():
    domain, _, _ = compile_grid(GridSpec(2, 2, frozenset(), 1, (4,)))
    assert len(domain.actions) == 8  # hand count: 4 cells x 2 neighbours


def test_nine_by_five_counts():
    domain, initial, goals = compile_grid(GridSpec(9, 5, frozenset(), 20, (5,)))
    assert len(domain.facts) == 45
    # directed moves: 2 * (w*(h-1) + h*(w-1)) = 2 * (36 + 40)
    assert len(domain.actions) == 152
    assert initial == frozenset({"at-20"})
    assert goals == [frozenset({"at-5"})]


def test_single_cell_grid_has_no_actions():
    domain, _, _ = compile_grid(GridSpec(1, 1, frozenset(), 1, (1,)))
    assert len(domain.facts) == 1
    assert len(domain.actions) == 0


def test_blocked_cells_get_facts_but_no_moves():
    domain, _, _ = compile_grid(GridSpec(3, 1, frozenset({2}), 1, (1,)))
    assert "at-2" in domain.facts
    assert not any("-2" == a.name[-2:] or "-2-" in a.name for a in domain.actions)


def test_cell_move_name_known_cells():
    assert cell_move_name(26, 17, 9) == "up"
    assert cell_move_name(23, 24, 9) == "right"
    assert cell_move_name(23, 14, 9) == "up"
    assert cell_move_name(14, 23, 9) == "down"
    assert cell_move_name(24, 23, 9) == "left"


def test_cell_move_name_rejects_non_adjacent():
    with pytest.raises(NotAdjacent):
        cell_move_name(5, 5, 9)
    with pytest.raises(NotAdjacent):
        cell_move_name(9, 10, 9)  # row wrap is not adjacency
    with pytest.raises(NotAdjacent):
        cell_move_name(1, 3, 9)


def test_every_compiled_action_satisfies_row_major_adjacency():
    domain, _, _ = compile_grid(GridSpec(7, 6, frozenset({9, 17, 30}), 1, (42,)))
    for action in domain.actions:
        _, direction, src, dst = action.name.split("-")
        assert cell_move_name(int(src), int(dst), 7) == direction


def test_grid_neighbors_respects_boundaries():
    assert dict(grid_neighbors(1, 3, 3)) == {"down": 4, "right": 2}
    assert dict(grid_neighbors(9, 3, 3)) == {"up": 6, "left": 8}
    assert len(list(grid_neighbors(5, 3, 3))) == 4


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


def test_nav_reconstruction_compiles_and_goals_solvable(nav_problem):
    domain = nav_problem.domain
    assert len(domain.facts) == 45
    assert domain.annotations["width"] == 9
    costs = [optimal_cost(PlanningTask(domain, nav_problem.initial, g))
             for g in nav_problem.goals]
    assert costs == [5, 8, 8]


def test_audit_flags_unreachable_goals():
    spec = GridSpec(3, 3, frozenset({6, 8}), 1, (9, 3))
    domain, initial, goals = compile_grid(spec)
    assert [optimal_cost(PlanningTask(domain, initial, g)) is None
            for g in goals] == [True, False]
