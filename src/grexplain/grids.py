"""Grid-navigation scenarios as ground STRIPS domains worked out from cells.

Cells are numbered 1..width*height, row-major from the top-left corner, so
"up" from cell c is c - width and "right" is c + 1.  Every cell gets an
``at-<cell>`` fact (blocked cells keep their fact but no action enters them),
and each legal adjacent move is a unit-cost action named
``move-<direction>-<from>-<to>``: pre and del {at-<from>}, add {at-<to>}.
No move is filed: ``GridDomain`` computes each row from the agent's cell
and builds a move's name and value only where one is read, and formats the
``at-<cell>`` names only where ``facts``, ``encode``, ``decode`` or an
error message reads them.  Its goal costs and shortest paths come from
breadth-first layers over the whole board, each a cell mask, and fill no
row but those along a path.

Board names follow one format on grids and Sokoban boards alike: an action is
``<verb>-<direction>-<from>-<to>`` and a fact is ``<kind>-<cell>``.
Only ``GridDomain`` and ``compile_sokoban`` write them, and ``parse_move``,
``move_direction`` and ``parse_fact`` are their one reader (for rendering,
direction words, ``GridDomain``'s name lookup and the suite generator).
"""

from functools import cached_property
from itertools import islice
from typing import NamedTuple, Optional

from .errors import BudgetExceeded, MalformedSpec
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
# 0.5 ms, builds its three layer masks in about 0.17 ms and floods all 127
# layers from a corner in about 0.11 ms; pricing one goal from all 4,096
# cells takes about 4 ms, and filling all 4,096 rows about 9 ms, within
# 1 MB of the 16 MB the import takes (Python 3.11, 2-core Xeon).  Reading
# all 16,128 actions (``actions``) adds about 20 MB.  A fixed validation
# limit, not a setting.
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

    A set of cells is one int, bit ``i`` being cell index ``i``, so a
    breadth-first layer from a set F is five whole-board operations:
    ``(F & not_last) << 1 | (F & not_first) >> 1 | F << width |
    F >> width``, masked by the free cells no earlier layer holds
    (``_layers``).  The recognizer's ``goal_costs`` floods from each goal's
    cell and the planner's ``shortest_path`` from the start and then back
    from the goal; neither loops over cells.  A layer costs a number of
    big-int digit operations that grows with the board, not with the
    layer, so a long winding corridor loses to a row-by-row search.  On a
    64 x 64 serpentine of 2,080 free cells, pricing 4 goals takes about
    7.8 ms and one 2,015-step plan 19.6 ms, where one pass per goal over
    the rows took 4.7 ms and a sweep 16.4 ms.
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

    @cached_property
    def _masks(self) -> tuple:
        """(free cells, cells off the first column, cells off the last
        column) as cell masks, each read from one bit string, highest cell
        first: summing ``1 << i`` per cell would take time quadratic in the
        board's size."""
        width, height = self.width, len(self._free) // self.width
        free = "".join("1" if f else "0" for f in reversed(self._free))
        return (int(free, 2), int(("1" * (width - 1) + "0") * height, 2),
                int(("0" + "1" * (width - 1)) * height, 2))

    def _layers(self, i: int):
        """The breadth-first layers from cell index ``i`` as cell masks:
        ``1 << i``, then each layer's free neighbours that no earlier layer
        holds, until one is empty.  A layer is five whole-board operations
        on the masks, not a loop over its cells."""
        width, (free, not_first, not_last) = self.width, self._masks
        layer = 1 << i
        unseen = free ^ layer if free & layer else 0  # a blocked cell: no move
        while layer:
            yield layer
            layer = unseen & ((layer & not_last) << 1 | (layer & not_first) >> 1
                              | layer << width | layer >> width)
            unseen ^= layer

    def _goal_cell(self, goal: int) -> Optional[int]:
        """The cell index of a goal that is one cell of the board, else
        None."""
        i = goal.bit_length() - 1
        return i if 0 <= i < self.fact_count and goal == 1 << i else None

    def goal_costs(self, goals, states, limit):
        """One row per state of ``states``, each goal's optimal cost from
        it (None where unreachable): the depth of the state's cell in the
        layers from the goal's cell, as every move can be undone.  Only
        the asked-for cells of a layer are decoded, and no successor row is
        filled.  None instead where a goal is not one cell of the board,
        or its cell reaches more than ``limit`` cells, so the recognizer
        sweeps."""
        sources = [self._goal_cell(goal) for goal in goals]
        if None in sources:
            return None
        cells = [self.state_id(state) for state in states]
        wanted, found = sum(1 << i for i in set(cells)), []
        for source in sources:
            depths, reached = {}, 0
            for depth, layer in enumerate(self._layers(source)):
                reached += layer.bit_count()
                hits = layer & wanted
                while hits:
                    low = hits & -hits
                    depths[low.bit_length() - 1] = depth
                    hits ^= low
            if reached > limit:
                return None
            found.append(depths)
        return [[depths.get(i) for depths in found] for i in cells]

    def shortest_path(self, initial, goal, budget):
        """The cell indices of the lexicographically first shortest path
        from ``initial`` to ``goal``, both ends included, or ``[]`` where
        none exists; None for a goal that is not one cell of the board.
        BudgetExceeded, or None for ``optimal_plan`` to sweep, follow the
        sweep's count (``planner`` module docstring): with B the cells of
        the layers from ``initial`` before the goal's, B + 1 over
        ``budget`` raises and B plus the goal's layer within it cannot,
        while between the two the goal's place in its layer decides, which
        the masks do not know, so None.  An unreachable goal raises where
        the cells reached are over ``budget``.  The path is a greedy walk
        down the layers from the goal: each step takes the first
        successor, in name order, one move nearer the goal."""
        j = self._goal_cell(goal)
        if j is None:
            return None
        start, before = self.state_id(initial), 0
        for depth, layer in enumerate(self._layers(start)):
            if layer >> j & 1:
                break
            before += layer.bit_count()
        else:
            if before > budget:
                raise BudgetExceeded(budget)
            return []
        if before >= budget:
            raise BudgetExceeded(budget)
        if before + layer.bit_count() > budget:
            return None
        rows, expand, path = self.rows, self.expand, [start]
        for shell in reversed(list(islice(self._layers(j), depth))):
            cell = path[-1]
            path.append(next(succ for succ in rows[cell] or expand(cell)
                             if shell >> succ & 1))
        return path


def compile_grid(spec: GridSpec):
    """Compile a grid into (``GridDomain``, initial state, goal masks): one
    goal hypothesis per goal cell, its bit."""
    return (GridDomain(spec), 1 << (spec.start - 1),
            [1 << (g - 1) for g in spec.goal_cells])
