"""Grid-navigation scenarios compiled into ground STRIPS domains.

Cells are numbered 1..width*height, row-major from the top-left corner, so
"up" from cell c is c - width and "right" is c + 1.  Every cell gets an
``at-<cell>`` fact (blocked cells keep their fact but no action enters them),
and each legal adjacent move becomes a unit-cost action named
``move-<direction>-<from>-<to>``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedSpec, NotAdjacent
from .strips import DomainDefinition, GroundAction, State

DIRECTIONS = ("up", "down", "left", "right")


@dataclass(frozen=True)
class GridSpec:
    width: int
    height: int
    blocked: frozenset = frozenset()
    start: int = 1
    goal_cells: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "blocked", frozenset(self.blocked))
        object.__setattr__(self, "goal_cells", tuple(self.goal_cells))
        if self.width < 1 or self.height < 1:
            raise MalformedSpec("grid dimensions must be positive")
        n = self.width * self.height
        for cell in self.blocked:
            if not 1 <= cell <= n:
                raise MalformedSpec(f"blocked cell {cell} out of range 1..{n}")
        for label, cell in [("start", self.start)] + [
            (f"goal {g}", g) for g in self.goal_cells
        ]:
            if not 1 <= cell <= n:
                raise MalformedSpec(f"{label} out of range 1..{n}")
            if cell in self.blocked:
                raise MalformedSpec(f"{label} is a blocked cell")


def cell_fact(cell: int) -> str:
    return f"at-{cell}"


def cell_move_name(from_cell: int, to_cell: int, width: int) -> str:
    """Direction label for a move between two row-major-adjacent cells."""
    delta = to_cell - from_cell
    same_row = (from_cell - 1) // width == (to_cell - 1) // width
    if delta == -width:
        return "up"
    if delta == width:
        return "down"
    if delta == -1 and same_row:
        return "left"
    if delta == 1 and same_row:
        return "right"
    raise NotAdjacent(f"cells {from_cell} and {to_cell} are not adjacent (width {width})")


def grid_neighbors(cell: int, width: int, height: int):
    """(direction, neighbour) pairs of a cell under row-major numbering."""
    row, col = divmod(cell - 1, width)
    if row > 0:
        yield "up", cell - width
    if row < height - 1:
        yield "down", cell + width
    if col > 0:
        yield "left", cell - 1
    if col < width - 1:
        yield "right", cell + 1


def compile_grid(spec: GridSpec):
    """Compile a grid into (domain, initial state, goal fact-sets).

    One goal hypothesis per goal cell: the singleton {at-<cell>}.
    """
    n = spec.width * spec.height
    facts = [cell_fact(c) for c in range(1, n + 1)]
    actions = []
    for cell in range(1, n + 1):
        if cell in spec.blocked:
            continue
        for direction, nbr in grid_neighbors(cell, spec.width, spec.height):
            if nbr in spec.blocked:
                continue
            actions.append(GroundAction(
                name=f"move-{direction}-{cell}-{nbr}",
                preconditions=frozenset([cell_fact(cell)]),
                add_effects=frozenset([cell_fact(nbr)]),
                delete_effects=frozenset([cell_fact(cell)]),
            ))
    domain = DomainDefinition(
        facts, actions,
        annotations={"kind": "grid", "width": spec.width, "height": spec.height,
                     "blocked": sorted(spec.blocked)},
    )
    initial = State([cell_fact(spec.start)])
    goals = [frozenset([cell_fact(g)]) for g in spec.goal_cells]
    return domain, initial, goals
