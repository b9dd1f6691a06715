"""Grid-navigation scenarios as ground STRIPS domains worked out from cells.

Cells are numbered 1..width*height, row-major from the top-left corner, so
"up" from cell c is c - width and "right" is c + 1.  Every cell gets an
``at-<cell>`` fact (blocked cells keep their fact but no action enters them),
and each legal adjacent move is a unit-cost action named
``move-<direction>-<from>-<to>``: pre and del {at-<from>}, add {at-<to>}.
No move is filed: ``GridDomain`` computes each row from the agent's cell
and builds a move's name and value only where one is read, and formats the
``at-<cell>`` names only where ``facts``, ``encode``, ``decode`` or an
error message reads them.

Board names follow one format on grids and Sokoban boards alike: an action is
``<verb>-<direction>-<from>-<to>`` and a fact is ``<kind>-<cell>``.
Only ``GridDomain`` and ``compile_sokoban`` write them, and ``parse_move``,
``move_direction`` and ``parse_fact`` are their one reader (for rendering,
direction words, ``GridDomain``'s name lookup and the suite generator).
"""

from functools import cached_property
from typing import NamedTuple, Optional

from .errors import MalformedSpec
from .strips import DomainDefinition

# Row and column step of each direction word, in the order moves are compiled.
DELTAS = {"up": (-1, 0), "down": (1, 0), "left": (0, -1), "right": (0, 1)}
DIRECTIONS = tuple(DELTAS)

# The most cells a grid or Sokoban board may have: 64 x 64, 3.5 times the
# largest benchmark board (34 x 34).  A Sokoban compile files every action,
# with masks as wide as the fact list, so its memory grows with the square
# of the cell count: an open 64 x 64 multi-push board (47,616 actions)
# compiles in about 0.4 s to 230 MB peak RSS (Python 3.11, 2-core Xeon), and
# four times the cells would need about 3.5 GB.  A grid compile files no
# action and formats no fact name: an open 64 x 64 grid compiles in about
# 0.25 ms and fills all 4,096 rows in about 9 ms, within 2 MB of the 15.8 MB
# the import takes; reading all 16,128 actions (``actions``) adds about
# 20 MB.  A fixed validation limit, not a setting.
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


class GridDomain(DomainDefinition):
    """A grid's domain, fact ``at-<cell>`` being bit ``cell - 1``.

    A state is one cell, and its id is the cell's index: ``states`` holds
    every cell's state from the compile, and any other state is a
    MalformedSpec (no move leads from a cell to one).  A cell's row lists
    the free cells one ``offset`` step away in name order: down, left,
    right, up.  A cell's moves become index entries, in that order, the
    first time a name, ``applicable_actions`` or ``actions`` reads the
    cell; a name is known only as the entry spells it, so
    ``move-up-012-3`` is unknown.
    """

    def __init__(self, spec: GridSpec):
        n = spec.width * spec.height
        # Set before the base initializer: the traced benchmark run reads
        # ``facts`` and ``actions`` as soon as that returns.
        self.width = spec.width
        self._free = [cell not in spec.blocked for cell in range(1, n + 1)]
        self._entries = [None] * n  # cell index -> entries, on first read
        super().__init__((), ())
        self.fact_count = n
        self.states = [1 << i for i in range(n)]
        self.rows = [None] * n

    @cached_property
    def facts(self) -> tuple:
        """``at-1`` to ``at-<cells>``, formatted on first read."""
        return tuple(f"at-{cell}" for cell in range(1, len(self._free) + 1))

    def _neighbours(self, i: int) -> list:
        """The indices of the free cells one step from cell index ``i``, in
        name order; a list, not a generator, as every row fill reads it."""
        width, free, found = self.width, self._free, []
        if free[i]:
            col = i % width
            if i + width < len(free) and free[i + width]:
                found.append(i + width)
            if col and free[i - 1]:
                found.append(i - 1)
            if col + 1 < width and free[i + 1]:
                found.append(i + 1)
            if i >= width and free[i - width]:
                found.append(i - width)
        return found

    def _cell_entries(self, i: int) -> list:
        """The entries of the moves from cell index ``i``, in name order."""
        found = self._entries[i]
        if found is None:
            here, width = 1 << i, self.width
            # At width 1 a one-cell step is vertical: listed last, down and
            # up win there.
            words = {-1: "left", 1: "right", width: "down", -width: "up"}
            found = self._entries[i] = [
                (here, ~here, 1 << j, f"move-{words[j - i]}-{i + 1}-{j + 1}")
                for j in self._neighbours(i)]
        return found

    def _entry(self, name: str) -> Optional[tuple]:
        move = parse_move(name)
        if move and move[0] == "move" and 1 <= move[2] <= len(self._free):
            for entry in self._cell_entries(move[2] - 1):
                if entry[3] == name:
                    return entry
        return None

    def _candidates(self, state: int) -> list:
        return self._cell_entries(self.state_id(state))

    @cached_property
    def actions(self) -> tuple:
        """Every move as a ``GroundAction``, cell by cell in the order of
        ``DIRECTIONS``, as the eager compile listed them."""
        return tuple(
            self.action(name) for i in range(len(self._free))
            for name in sorted((e[3] for e in self._cell_entries(i)),
                               key=lambda n: DIRECTIONS.index(
                                   move_direction(n))))

    def state_id(self, state: int) -> int:
        """The cell index of a one-cell state on the board."""
        i = state.bit_length() - 1
        if 0 <= i < self.fact_count and state == 1 << i:
            return i
        raise MalformedSpec(f"grid state {state:#x} is not one cell of the "
                            f"{self.fact_count} on the board")

    def expand(self, state_id: int) -> tuple:
        found = self.rows[state_id]
        if found is None:
            found = self.rows[state_id] = tuple(self._neighbours(state_id))
        return found

    def distance_tables(self, goals, limit):
        """Each goal's optimal cost from every cell, a list per goal indexed
        by cell index (None where unreachable): one breadth-first pass over
        the rows from the goal's cell, as every move can be undone.  None
        instead for a goal that is not one cell, and as soon as a row takes
        a pass past ``limit`` cells; the rows filled are kept."""
        rows, expand, tables = self.rows, self.expand, []
        for goal in goals:
            i = goal.bit_length() - 1
            if i < 0 or goal != 1 << i:
                return None
            table, found = [None] * self.fact_count, [i]
            table[i] = 0
            for sid in found:
                depth = table[sid] + 1
                for succ in rows[sid] or expand(sid):
                    if table[succ] is None:
                        table[succ] = depth
                        found.append(succ)
                if len(found) > limit:
                    return None
            tables.append(table)
        return tables


def compile_grid(spec: GridSpec):
    """Compile a grid into (``GridDomain``, initial state, goal masks): one
    goal hypothesis per goal cell, its bit."""
    return (GridDomain(spec), 1 << (spec.start - 1),
            [1 << (g - 1) for g in spec.goal_cells])
