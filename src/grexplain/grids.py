"""Grid-navigation scenarios compiled into ground STRIPS domains.

Cells are numbered 1..width*height, row-major from the top-left corner, so
"up" from cell c is c - width and "right" is c + 1.  Every cell gets an
``at-<cell>`` fact (blocked cells keep their fact but no action enters them),
and each legal adjacent move becomes a unit-cost action named
``move-<direction>-<from>-<to>``: pre and del {at-<from>}, add {at-<to>}.

Board names follow one format on grids and Sokoban boards alike: an action is
``<verb>-<direction>-<from>-<to>`` and a fact is ``<kind>-<cell>``.
Only the two compilers write them, and ``parse_move``, ``move_direction``
and ``parse_fact`` are their one reader (for rendering, direction words and
the suite generator).
"""

from typing import NamedTuple

from .errors import MalformedSpec
from .strips import DomainDefinition

# Row and column step of each direction word, in the order moves are compiled.
DELTAS = {"up": (-1, 0), "down": (1, 0), "left": (0, -1), "right": (0, 1)}
DIRECTIONS = tuple(DELTAS)

# The most cells a grid or Sokoban board may have: 64 x 64, 3.5 times the
# largest benchmark board (34 x 34).  Each action's masks are ints as wide as
# the fact list, so compiling takes memory that grows with the square of the
# cell count: an open 64 x 64 multi-push Sokoban board (47,616 actions)
# compiles in about 0.5 s to 231 MB peak RSS (Python 3.11, 2-core Xeon), and
# four times the cells would need about 3.5 GB.  A fixed validation limit,
# not a setting.
MAX_CELLS = 4_096


def check_board_size(kind: str, width: int, height: int) -> None:
    """Reject a ``kind`` board of more than ``MAX_CELLS`` cells, before any
    per-cell work."""
    if width * height > MAX_CELLS:
        raise MalformedSpec(
            f"{kind} of width {width} and height {height} has "
            f"{width * height} cells, more than the limit of {MAX_CELLS}")


class _GridFields(NamedTuple):
    width: int
    height: int
    blocked: frozenset
    start: int
    goal_cells: tuple


class GridSpec(_GridFields):
    """A grid board; ``blocked`` is kept as a frozenset and ``goal_cells``
    as a tuple, and every cell is range-checked on construction."""

    __slots__ = ()

    def __new__(cls, width, height, blocked=frozenset(), start=1,
                goal_cells=()):
        blocked, goal_cells = frozenset(blocked), tuple(goal_cells)
        if width < 1 or height < 1:
            raise MalformedSpec("grid dimensions must be positive")
        check_board_size("grid", width, height)
        n = width * height
        for cell in blocked:
            if not 1 <= cell <= n:
                raise MalformedSpec(f"blocked cell {cell} out of range 1..{n}")
        for label, cell in [("start", start)] + [
            (f"goal {g}", g) for g in goal_cells
        ]:
            if not 1 <= cell <= n:
                raise MalformedSpec(f"{label} out of range 1..{n}")
            if cell in blocked:
                raise MalformedSpec(f"{label} is a blocked cell")
        return super().__new__(cls, width, height, blocked, start, goal_cells)


def offset(cell: int, direction: str, width: int, height: int, steps: int = 1):
    """The cell ``steps`` moves from ``cell`` toward ``direction`` under
    row-major numbering, or None off the board."""
    row, col = divmod(cell - 1, width)
    drow, dcol = DELTAS[direction]
    row, col = row + drow * steps, col + dcol * steps
    if 0 <= row < height and 0 <= col < width:
        return row * width + col + 1
    return None


def parse_move(name: str):
    """(verb, direction, from-cell, to-cell) of a board action name, or None
    for a name that is not a board move."""
    parts = name.split("-")
    if (len(parts) != 4 or parts[0] not in ("move", "push", "push2")
            or parts[1] not in DELTAS):
        return None
    try:
        return parts[0], parts[1], int(parts[2]), int(parts[3])
    except ValueError:
        return None


def move_direction(name: str) -> str:
    """The direction word of a compiled board action name: its second field,
    read without ``parse_move``'s checks and cell conversions."""
    return name.split("-", 2)[1]


def parse_fact(fact: str):
    """(kind, cell) of a board fact name such as ``box-12``."""
    kind, _, cell = fact.partition("-")
    return kind, int(cell)


def compile_grid(spec: GridSpec):
    """Compile a grid into (domain, initial state, goal masks).

    Fact ``at-<cell>`` is bit ``cell - 1``.  One goal hypothesis per goal
    cell: its bit.  The moves go to ``DomainDefinition`` as a generator, so
    each tuple is freed once its entry is filed and the compile never holds
    a list of them beside the index (fewer live objects also mean fewer
    garbage-collector passes).
    """
    width, height, blocked = spec.width, spec.height, spec.blocked
    n = width * height
    labels = [str(c) for c in range(n + 1)]  # each cell number, formatted once

    def moves():
        for cell in range(1, n + 1):
            if cell in blocked:
                continue
            here, text = 1 << (cell - 1), labels[cell]
            # ``offset``'s rule, one divmod for the cell's four neighbours.
            row, col = divmod(cell - 1, width)
            for direction, (drow, dcol) in DELTAS.items():
                r, c = row + drow, col + dcol
                nbr = r * width + c + 1
                if not (0 <= r < height and 0 <= c < width) or nbr in blocked:
                    continue
                yield (f"move-{direction}-{text}-{labels[nbr]}",
                       here, 1 << (nbr - 1), here)

    domain = DomainDefinition([f"at-{label}" for label in labels[1:]], moves())
    return (domain, 1 << (spec.start - 1),
            [1 << (g - 1) for g in spec.goal_cells])
