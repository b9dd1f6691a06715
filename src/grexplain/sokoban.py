"""Sokoban scenarios compiled into ground STRIPS domains.

The encoding keeps boxes anonymous: facts are ``player-<cell>``,
``box-<cell>`` and ``clear-<cell>`` over non-wall cells, and a goal hypothesis
is the conjunction of ``box-<storage>`` facts for its assigned storages.
Pushes require the player adjacent to the box line and the cell beyond it
clear; with ``multi_push`` a straight line of two boxes can be shoved one cell
in a single action (the variant where the player may push two boxes at once).

An action ``<verb>-<direction>-<c>-<n>`` starts at cell c; n, b and f are
the next three cells toward ``direction``.  ``move`` has pre and del
{player-c, clear-n} and add {player-n, clear-c}; ``push`` has pre and del
{player-c, box-n, clear-b} and add {player-n, box-b, clear-c}; ``push2`` has
pre {player-c, box-n, box-b, clear-f}, add {player-n, box-f, clear-c} and
del {player-c, box-n, clear-f}.

All actions cost 1: plain walking counts toward plan length just like pushes.

The ``player-*`` facts are numbered first and form an exactly-one group:
every reachable state has the player on exactly one cell, and every action
has exactly one ``player-`` precondition, its lowest precondition bit.  So
the successor index files each action under its start cell, and an
expansion tests only the actions that start where the player stands.
"""

from typing import NamedTuple

from .errors import MalformedSpec
from .grids import DIRECTIONS, check_board_size, offset
from .strips import DomainDefinition


class _SokobanFields(NamedTuple):
    width: int
    height: int
    walls: frozenset
    player: int
    boxes: tuple
    storage: tuple
    goal_assignments: tuple  # each entry: tuple of storage cells to fill
    multi_push: bool


class SokobanSpec(_SokobanFields):
    """A Sokoban board; ``walls`` is kept as a frozenset and the cell lists
    as tuples, and the board is checked on construction."""

    __slots__ = ()

    def __new__(cls, width, height, walls=frozenset(), player=1, boxes=(),
                storage=(), goal_assignments=(), multi_push=False):
        walls, boxes, storage = frozenset(walls), tuple(boxes), tuple(storage)
        goal_assignments = tuple(tuple(a) for a in goal_assignments)
        if width < 1 or height < 1:
            raise MalformedSpec("board dimensions must be positive")
        check_board_size("board", width, height)
        n = width * height
        occupied = [("player", player)] + [("box", b) for b in boxes]
        seen = set()
        for label, cell in occupied + [("storage", s) for s in storage]:
            if not 1 <= cell <= n:
                raise MalformedSpec(f"{label} cell {cell} out of range 1..{n}")
            if cell in walls:
                raise MalformedSpec(f"{label} cell {cell} is a wall")
        for label, cell in occupied:
            if cell in seen:
                raise MalformedSpec(f"entities overlap at cell {cell}")
            seen.add(cell)
        if len(set(storage)) != len(storage):
            raise MalformedSpec("duplicate storage cells")
        for assignment in goal_assignments:
            if len(set(assignment)) != len(assignment):
                raise MalformedSpec(f"goal assignment repeats a storage: {assignment}")
            for cell in assignment:
                if cell not in storage:
                    raise MalformedSpec(f"goal assignment uses non-storage cell {cell}")
            if len(assignment) > len(boxes):
                raise MalformedSpec("goal assignment needs more boxes than exist")
        return super().__new__(cls, width, height, walls, player, boxes,
                               storage, goal_assignments, multi_push)


def compile_sokoban(spec: SokobanSpec):
    """Compile a Sokoban board into (domain, initial state, goal masks).

    With ``floor`` the non-wall cells in order, ``player-<floor[i]>``,
    ``box-<floor[i]>`` and ``clear-<floor[i]>`` are bits i, len(floor) + i
    and 2 * len(floor) + i.  The actions go to ``DomainDefinition`` as a
    generator, as in ``compile_grid``.
    """
    n = spec.width * spec.height
    floor = [c for c in range(1, n + 1) if c not in spec.walls]
    k = len(floor)
    player = {c: 1 << i for i, c in enumerate(floor)}
    box = {c: 1 << (k + i) for i, c in enumerate(floor)}
    clear = {c: 1 << (2 * k + i) for i, c in enumerate(floor)}

    def step(cell, direction, steps=1):
        """The floor cell ``steps`` moves away, or None at a wall or edge."""
        dest = offset(cell, direction, spec.width, spec.height, steps)
        return None if dest in spec.walls else dest

    labels = {c: str(c) for c in floor}  # each cell number, formatted once

    def actions():
        for cell in floor:
            text = labels[cell]
            for direction in DIRECTIONS:
                dest = step(cell, direction)
                if dest is None:
                    continue
                suffix = f"{direction}-{text}-{labels[dest]}"
                pre = player[cell] | clear[dest]
                yield f"move-{suffix}", pre, player[dest] | clear[cell], pre
                box_to = step(cell, direction, 2)
                if box_to is None:
                    continue
                pre = player[cell] | box[dest] | clear[box_to]
                yield (f"push-{suffix}", pre,
                       player[dest] | box[box_to] | clear[cell], pre)
                pair_to = step(cell, direction, 3) if spec.multi_push else None
                if pair_to is None:
                    continue
                # Two boxes in a row shift by one cell; the rear box lands
                # where the front box was, so only the line's ends change.
                yield (f"push2-{suffix}",
                       player[cell] | box[dest] | box[box_to] | clear[pair_to],
                       player[dest] | box[pair_to] | clear[cell],
                       player[cell] | box[dest] | clear[pair_to])

    facts = [f"{kind}-{labels[c]}" for kind in ("player", "box", "clear")
             for c in floor]
    domain = DomainDefinition(facts, actions())

    occupied = {spec.player, *spec.boxes}
    initial = (player[spec.player] | sum(box[b] for b in spec.boxes)
               | sum(clear[c] for c in floor if c not in occupied))
    goals = [sum(box[s] for s in assignment)
             for assignment in spec.goal_assignments]
    return domain, initial, goals
