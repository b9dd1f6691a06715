"""Sokoban scenarios compiled into ground STRIPS domains.

The encoding keeps boxes anonymous: facts are ``player-<cell>``,
``box-<cell>`` and ``clear-<cell>`` over non-wall cells, and a goal hypothesis
is the conjunction of ``box-<storage>`` facts for its assigned storages.
Pushes require the player adjacent to the box line and the cell beyond it
clear; with ``multi_push`` a straight line of two boxes can be shoved one cell
in a single action (the variant where the player may push two boxes at once).

All actions cost 1: plain walking counts toward plan length just like pushes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedSpec
from .grids import DIRECTIONS, offset
from .strips import DomainDefinition, GroundAction, State


@dataclass(frozen=True)
class SokobanSpec:
    width: int
    height: int
    walls: frozenset = frozenset()
    player: int = 1
    boxes: tuple = ()
    storage: tuple = ()
    goal_assignments: tuple = ()  # each entry: tuple of storage cells to fill
    multi_push: bool = False

    def __post_init__(self):
        object.__setattr__(self, "walls", frozenset(self.walls))
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "storage", tuple(self.storage))
        object.__setattr__(self, "goal_assignments",
                           tuple(tuple(a) for a in self.goal_assignments))
        n = self.width * self.height
        if self.width < 1 or self.height < 1:
            raise MalformedSpec("board dimensions must be positive")
        occupied = [("player", self.player)] + [("box", b) for b in self.boxes]
        seen = set()
        for label, cell in occupied + [("storage", s) for s in self.storage]:
            if not 1 <= cell <= n:
                raise MalformedSpec(f"{label} cell {cell} out of range 1..{n}")
            if cell in self.walls:
                raise MalformedSpec(f"{label} cell {cell} is a wall")
        for label, cell in occupied:
            if cell in seen:
                raise MalformedSpec(f"entities overlap at cell {cell}")
            seen.add(cell)
        if len(set(self.storage)) != len(self.storage):
            raise MalformedSpec("duplicate storage cells")
        for assignment in self.goal_assignments:
            if len(set(assignment)) != len(assignment):
                raise MalformedSpec(f"goal assignment repeats a storage: {assignment}")
            for cell in assignment:
                if cell not in self.storage:
                    raise MalformedSpec(f"goal assignment uses non-storage cell {cell}")
            if len(assignment) > len(self.boxes):
                raise MalformedSpec("goal assignment needs more boxes than exist")


def compile_sokoban(spec: SokobanSpec):
    """Compile a Sokoban board into (domain, initial state, goal fact-sets)."""
    n = spec.width * spec.height
    floor = [c for c in range(1, n + 1) if c not in spec.walls]
    player = {c: f"player-{c}" for c in floor}
    box = {c: f"box-{c}" for c in floor}
    clear = {c: f"clear-{c}" for c in floor}
    facts = [*player.values(), *box.values(), *clear.values()]

    def step(cell, direction, steps=1):
        """The floor cell ``steps`` moves away, or None at a wall or edge."""
        dest = offset(cell, direction, spec.width, spec.height, steps)
        return None if dest in spec.walls else dest

    actions = []
    for cell in floor:
        for direction in DIRECTIONS:
            dest = step(cell, direction)
            if dest is None:
                continue
            actions.append(GroundAction(
                name=f"move-{direction}-{cell}-{dest}",
                preconditions=frozenset([player[cell], clear[dest]]),
                add_effects=frozenset([player[dest], clear[cell]]),
                delete_effects=frozenset([player[cell], clear[dest]]),
            ))
            box_to = step(cell, direction, 2)
            if box_to is None:
                continue
            actions.append(GroundAction(
                name=f"push-{direction}-{cell}-{dest}",
                preconditions=frozenset([player[cell], box[dest], clear[box_to]]),
                add_effects=frozenset([player[dest], box[box_to], clear[cell]]),
                delete_effects=frozenset([player[cell], box[dest], clear[box_to]]),
            ))
            pair_to = step(cell, direction, 3) if spec.multi_push else None
            if pair_to is None:
                continue
            # Two boxes in a row shift by one cell; the rear box lands where
            # the front box was, so only the line's ends change.
            actions.append(GroundAction(
                name=f"push2-{direction}-{cell}-{dest}",
                preconditions=frozenset(
                    [player[cell], box[dest], box[box_to], clear[pair_to]]),
                add_effects=frozenset([player[dest], box[pair_to], clear[cell]]),
                delete_effects=frozenset(
                    [player[cell], box[dest], clear[pair_to]]),
            ))

    domain = DomainDefinition(
        facts, actions,
        annotations={"kind": "sokoban", "width": spec.width, "height": spec.height,
                     "walls": sorted(spec.walls), "storage": list(spec.storage)},
    )

    occupied = {spec.player, *spec.boxes}
    initial = State(
        [player[spec.player]]
        + [box[b] for b in spec.boxes]
        + [clear[c] for c in floor if c not in occupied]
    )
    goals = [frozenset(box[s] for s in assignment)
             for assignment in spec.goal_assignments]
    return domain, initial, goals
