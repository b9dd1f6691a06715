"""The benchmark's own board model, breadth-first search and mirroring oracle.

Nothing here imports grexplain: generated inputs and the posteriors the
output check compares against are derived from the board rules alone, so
they do not move when the code under test changes.

The rules restate the compilers' semantics.  Grid cells are numbered
1..width*height row-major from the top left; a move enters any adjacent free
cell.  Sokoban states are (player cell, frozenset of box cells); a move
enters a free cell, a push shoves one box into the free cell beyond it, and
with ``multi_push`` a push2 shoves a line of two boxes one cell.  Action
names follow the compilers (``move-<dir>-<from>-<to>``, ``push-...``,
``push2-...``), so the oracle can name counterfactual actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DIRECTIONS = ("up", "down", "left", "right")
_DELTAS = {"up": (-1, 0), "down": (1, 0), "left": (0, -1), "right": (0, 1)}
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Board:
    """A grid or Sokoban recognition problem, as the benchmark sees it."""

    kind: str  # "grid" | "sokoban"
    width: int
    height: int
    walls: frozenset
    start: object  # grid: cell; sokoban: (player, frozenset(boxes))
    goals: tuple  # grid: goal cells; sokoban: tuples of storage cells
    observations: tuple = ()  # direction words
    goal_names: tuple = ()
    multi_push: bool = False
    name: str = ""
    storage: tuple = ()

    def labels(self) -> tuple:
        return self.goal_names or tuple(f"g{i + 1}" for i in range(len(self.goals)))

    def offset(self, cell: int, direction: str, steps: int = 1):
        """Cell ``steps`` moves along ``direction``, or None off the board or
        on a wall."""
        row, col = divmod(cell - 1, self.width)
        drow, dcol = _DELTAS[direction]
        row, col = row + drow * steps, col + dcol * steps
        if not (0 <= row < self.height and 0 <= col < self.width):
            return None
        target = row * self.width + col + 1
        return None if target in self.walls else target

    def successors(self, state) -> list:
        """(action name, next state) pairs, sorted by action name."""
        out = []
        if self.kind == "grid":
            for d in DIRECTIONS:
                nbr = self.offset(state, d)
                if nbr is not None:
                    out.append((f"move-{d}-{state}-{nbr}", nbr))
        else:
            player, boxes = state
            for d in DIRECTIONS:
                dest = self.offset(player, d)
                if dest is None:
                    continue
                if dest not in boxes:
                    out.append((f"move-{d}-{player}-{dest}", (dest, boxes)))
                    continue
                beyond = self.offset(player, d, 2)
                if beyond is None:
                    continue
                if beyond not in boxes:
                    out.append((f"push-{d}-{player}-{dest}",
                                (dest, boxes - {dest} | {beyond})))
                elif self.multi_push:
                    end = self.offset(player, d, 3)
                    if end is not None and end not in boxes:
                        out.append((f"push2-{d}-{player}-{dest}",
                                    (dest, boxes - {dest} | {end})))
        out.sort()
        return out

    def satisfies(self, state, goal_index: int) -> bool:
        goal = self.goals[goal_index]
        if self.kind == "grid":
            return state == goal
        return set(goal) <= state[1]

    def step(self, state, word: str):
        """Resolve a direction word against ``state``: (action name, next)."""
        for name, nxt in self.successors(state):
            if name.split("-")[1] == word:
                return name, nxt
        raise ValueError(f"{self.name}: no {word} action from {state}")

    def states_along(self):
        """(states, action names): the initial state followed by the state
        after each observation, and the action each observation resolved to."""
        states = [self.start]
        names = []
        for word in self.observations:
            name, nxt = self.step(states[-1], word)
            names.append(name)
            states.append(nxt)
        return states, names


def goal_distances(board: Board, source) -> list:
    """Shortest distance from ``source`` to each goal (None if unreachable),
    stopping as soon as every goal is found."""
    found = [0 if board.satisfies(source, g) else None
             for g in range(len(board.goals))]
    missing = sum(d is None for d in found)
    seen = {source}
    frontier = [source]
    depth = 0
    while missing and frontier:
        depth += 1
        nxt_frontier = []
        for state in frontier:
            for _, nxt in board.successors(state):
                if nxt in seen:
                    continue
                seen.add(nxt)
                nxt_frontier.append(nxt)
                for g, d in enumerate(found):
                    if d is None and board.satisfies(nxt, g):
                        found[g] = depth
                        missing -= 1
        frontier = nxt_frontier
    return found


def _normalize(scores, prefix):
    total = sum(scores)
    if total == 0:
        raise ValueError(f"no goal reachable after observation {prefix}")
    return [s / total for s in scores]


@dataclass
class Oracle:
    """Mirroring posteriors and the explanation list, recomputed by BFS."""

    board: Board
    states: list
    actions: list
    prior: list
    posteriors: list
    predicted: list
    counterfactual: list
    entries: list  # (predicted goal, counterfactual goal, observation, woe)
    zero_pairs: set  # counterfactual goals with a zero-posterior exclusion


def oracle(board: Board) -> Oracle:
    """Recompute ``optimal(I->g) / (i + optimal(s_i->g))``, normalized per
    prefix, and the weight-of-evidence entries built from it."""
    states, actions = board.states_along()
    base = goal_distances(board, states[0])
    prior = _normalize([0.0 if c is None else 1.0 for c in base], 0)
    posteriors = []
    for i, state in enumerate(states[1:], start=1):
        suffix = goal_distances(board, state)
        scores = [0.0 if b is None or s is None else b / (i + s)
                  for b, s in zip(base, suffix)]
        posteriors.append(_normalize(scores, i))
    final = posteriors[-1] if posteriors else prior
    top = max(final)
    predicted = [g for g, p in enumerate(final) if p >= top - TIE_TOLERANCE]
    counterfactual = [g for g in range(len(final)) if g not in predicted]
    entries, zero_pairs = [], set()
    for i, dist in enumerate(posteriors, start=1):
        for g in predicted:
            for h in counterfactual:
                if dist[g] == 0 or dist[h] == 0:
                    zero_pairs.add(h)
                    continue
                woe = math.log(dist[g] / dist[h])
                if woe != 0.0:
                    entries.append((g, h, i, woe))
    return Oracle(board, states, actions, prior, posteriors, predicted,
                  counterfactual, entries, zero_pairs)


def layers(board: Board, source, depth=None):
    """Breadth-first layers from ``source``, at most ``depth`` deep: distances
    plus, for every state, its predecessors one layer closer (in BFS order)."""
    dist = {source: 0}
    preds = {source: []}
    frontier = [source]
    level = 0
    while frontier and (depth is None or level < depth):
        level += 1
        nxt_frontier = []
        for state in frontier:
            for _, nxt in board.successors(state):
                if nxt not in dist:
                    dist[nxt] = level
                    preds[nxt] = [state]
                    nxt_frontier.append(nxt)
                elif dist[nxt] == level:
                    preds[nxt].append(state)
        frontier = nxt_frontier
    return dist, preds


def first_optimal_action(board: Board, state, goal_index: int):
    """First step of the lexicographically first optimal plan: the
    alphabetically first action whose successor lies on a shortest path to
    the goal.  None when the goal holds already or is unreachable."""
    here = goal_distances(board, state)[goal_index]
    if not here:
        return None
    dist, preds = layers(board, state, here)
    on_path = {s for s, d in dist.items()
               if d == here and board.satisfies(s, goal_index)}
    frontier = list(on_path)
    while frontier:
        frontier = [p for s in frontier for p in preds[s] if p not in on_path]
        on_path.update(frontier)
    return next(name for name, nxt in board.successors(state)
                if dist.get(nxt) == 1 and nxt in on_path)
