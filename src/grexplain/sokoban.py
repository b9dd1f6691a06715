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

A box moves from cell x to x + d only if x - d and x + d are both floor: a
``push`` needs the player at x - d, and in a ``push2`` the front box needs
the rear box at x - d and the rear box needs the player behind it.  So a
box can end on a storage cell only from that cell's pull closure: the
storage itself and every cell x whose neighbour x + d is in the closure
while x - d is floor.  A goal's live cells are the union of its storages'
closures.  Boxes are never added, so a state with fewer boxes on its live
cells than the goal has storages is hopeless for it: these are the dead
squares of Junghanns and Schaeffer (2001).  ``SokobanDomain.drop_hopeless``
gives the planner that test, which never rules out a state that can reach
the goal.
"""

from typing import NamedTuple, Optional, Sequence

from .errors import MalformedSpec
from .grids import DIRECTIONS, check_board_size, offset
from .strips import DomainDefinition, _bits


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


class SokobanDomain(DomainDefinition):
    """A Sokoban board's domain, which tells the planner the states that
    are hopeless for a goal (module docstring).

    ``pulls[i]`` lists the floor indices from which one push moves a box
    onto floor cell i, and ``box-<floor[i]>`` is bit ``len(pulls) + i``.
    """

    def __init__(self, facts, actions, pulls: list):
        super().__init__(facts, actions)
        self._pulls = pulls
        self._bounds = {}  # goal mask -> (live box mask, boxes needed)

    def _bound(self, goal: int) -> Optional[tuple]:
        """(live box mask, boxes needed) of ``goal``, or None for a goal
        with a bit other than a box bit."""
        if goal not in self._bounds:
            pulls = self._pulls
            k = len(pulls)
            storage, found = goal >> k, None
            if storage << k == goal and not storage >> k:
                live = set(_bits(storage))
                todo = list(live)
                while todo:
                    for j in pulls[todo.pop()]:
                        if j not in live:
                            live.add(j)
                            todo.append(j)
                found = sum(1 << (k + j) for j in live), storage.bit_count()
            self._bounds[goal] = found
        return self._bounds[goal]

    def drop_hopeless(self, ids: list, goals: Sequence[int]) -> list:
        """The ids of ``ids`` whose states have enough boxes on the live
        cells of some goal of ``goals``, in order; ``ids`` itself if a goal
        is not boxes alone."""
        bounds = [self._bound(goal) for goal in goals]
        if None in bounds:
            return ids
        states, kept = self.states, []
        for sid in ids:
            state = states[sid]
            for live, need in bounds:
                if (state & live).bit_count() >= need:
                    kept.append(sid)
                    break
        return kept


def compile_sokoban(spec: SokobanSpec):
    """Compile a Sokoban board into (``SokobanDomain``, initial state, goal
    masks).

    With ``floor`` the non-wall cells in order, ``player-<floor[i]>``,
    ``box-<floor[i]>`` and ``clear-<floor[i]>`` are bits i, len(floor) + i
    and 2 * len(floor) + i.  The actions go to ``DomainDefinition`` as a
    generator, as in ``compile_grid``, which fills the pull lists as it
    yields the pushes.
    """
    n = spec.width * spec.height
    floor = [c for c in range(1, n + 1) if c not in spec.walls]
    k = len(floor)
    at = {c: i for i, c in enumerate(floor)}
    player = {c: 1 << i for c, i in at.items()}
    box = {c: 1 << (k + i) for c, i in at.items()}
    clear = {c: 1 << (2 * k + i) for c, i in at.items()}
    pulls = [[] for _ in floor]

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
                pulls[at[box_to]].append(at[dest])
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
    domain = SokobanDomain(facts, actions(), pulls)

    occupied = {spec.player, *spec.boxes}
    initial = (player[spec.player] | sum(box[b] for b in spec.boxes)
               | sum(clear[c] for c in floor if c not in occupied))
    goals = [sum(box[s] for s in assignment)
             for assignment in spec.goal_assignments]
    return domain, initial, goals
