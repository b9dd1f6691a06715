"""Seeded scenario generation and scenario-file reading for the benchmark.

Generation uses only ``random.Random`` and the benchmark's own board model
(``model.py``): observation prefixes are shortest paths found by the
benchmark's BFS, never by ``grexplain.planner``.  The same seed gives
byte-identical scenario text.
"""

from __future__ import annotations

import random
from pathlib import Path

import yaml

from model import DIRECTIONS, Board, goal_distances, layers


def _prefix(board: Board, rng: random.Random, dist: dict, preds: dict,
            n_obs: int) -> tuple:
    """Direction words of the first ``n_obs`` steps of a random shortest
    path to the first goal, drawn by walking back from a nearest goal state."""
    reached = [s for s in dist if board.satisfies(s, 0)]
    nearest = min(dist[s] for s in reached)
    state = rng.choice([s for s in reached if dist[s] == nearest])
    path = [state]
    while dist[state] > 0:
        state = rng.choice(preds[state])
        path.append(state)
    path.reverse()
    words = []
    for here, there in zip(path[:n_obs], path[1:n_obs + 1]):
        words.append(next(name.split("-")[1]
                          for name, nxt in board.successors(here) if nxt == there))
    return tuple(words)


def _has_evidence(board: Board) -> bool:
    """True when some goal is no longer on an optimal path after the last
    observation, so the explanation list is not empty and every verb answers."""
    states, _ = board.states_along()
    base = goal_distances(board, states[0])
    final = goal_distances(board, states[-1])
    n = len(board.observations)
    return any(b is not None and f is not None and n + f > b
               for b, f in zip(base, final))


def grid_scenario(rng: random.Random, side: int, n_goals: int, n_obs: int,
                  name: str, wall_share: float = 0.12) -> Board:
    """A side x side grid with random walls, ``n_goals`` goal cells at least
    half a side from the start, and an agent that walks ``n_obs`` steps of a
    shortest path to the first goal, which lies beyond them."""
    cells = range(1, side * side + 1)
    while True:
        walls = frozenset(rng.sample(cells, int(wall_share * side * side)))
        start = rng.choice([c for c in cells if c not in walls])
        probe = Board("grid", side, side, walls, start, ())
        dist, preds = layers(probe, probe.start)
        far = [c for c, d in dist.items() if d > n_obs + 2]
        others = [c for c, d in dist.items() if d >= side // 2]
        if not far or len(others) < n_goals:
            continue
        first = rng.choice(far)
        goals = (first, *rng.sample([c for c in others if c != first],
                                    n_goals - 1))
        probe = Board("grid", side, side, walls, start, goals)
        words = _prefix(probe, rng, dist, preds, n_obs)
        board = Board("grid", side, side, walls, start, goals, words, name=name)
        if _has_evidence(board):
            return board


def sokoban_scenario(rng: random.Random, width: int, height: int,
                     n_walls: int, n_boxes: int, n_goals: int, n_obs: int,
                     name: str) -> Board:
    """A Sokoban board (multi-push on) with ``n_goals`` storage assignments
    of ``n_boxes`` cells each, every one further than ``n_obs + 2`` steps,
    and an ``n_obs``-step shortest-plan prefix toward the first assignment."""
    cells = range(1, width * height + 1)
    while True:
        walls = frozenset(rng.sample(cells, n_walls))
        picks = rng.sample([c for c in cells if c not in walls],
                           1 + n_boxes * (1 + n_goals))
        player, boxes, storage = picks[0], frozenset(picks[1:1 + n_boxes]), \
            tuple(picks[1 + n_boxes:])
        goals = tuple(storage[i * n_boxes:(i + 1) * n_boxes]
                      for i in range(n_goals))
        probe = Board("sokoban", width, height, walls, (player, boxes), goals,
                      multi_push=True, storage=storage)
        if any(d is None or d <= n_obs + 2
               for d in goal_distances(probe, probe.start)):
            continue
        dist, preds = layers(probe, probe.start)
        words = _prefix(probe, rng, dist, preds, n_obs)
        board = Board("sokoban", width, height, walls, probe.start, goals,
                      words, multi_push=True, name=name, storage=storage)
        if _has_evidence(board):
            return board


def scenario_text(board: Board) -> str:
    """The board as a grexplain scenario file."""
    if board.kind == "grid":
        data = {"kind": "grid", "name": board.name,
                "grid": {"width": board.width, "height": board.height,
                         "blocked": sorted(board.walls), "start": board.start,
                         "goals": list(board.goals)}}
    else:
        player, boxes = board.start
        data = {"kind": "sokoban", "name": board.name,
                "sokoban": {"width": board.width, "height": board.height,
                            "walls": sorted(board.walls), "player": player,
                            "boxes": sorted(boxes),
                            "storage": list(board.storage),
                            "multi_push": board.multi_push,
                            "goals": [list(g) for g in board.goals]}}
    if board.goal_names:
        data["goal_names"] = list(board.goal_names)
    data["observations"] = list(board.observations)
    return yaml.safe_dump(data, sort_keys=False)


def read_board(path) -> Board:
    """Read a grid or Sokoban scenario file (explicit fields, or a grid
    ``map:``) into the benchmark's board model."""
    path = Path(path)
    data = yaml.safe_load(path.read_text())
    words = tuple(str(o) for o in data.get("observations") or ())
    if any(w not in DIRECTIONS for w in words):
        raise ValueError(f"{path}: only direction-word observations are modelled")
    names = tuple(str(g) for g in data.get("goal_names") or ())
    name = str(data.get("name", path.stem))
    if data["kind"] == "grid" and "map" in data:
        rows = [r.rstrip() for r in data["map"].splitlines() if r.strip()]
        width = max(len(r) for r in rows)
        walls, goals, start = set(), {}, None
        for r, row in enumerate(rows):
            for c, ch in enumerate(row.ljust(width, ".")):
                cell = r * width + c + 1
                if ch == "#":
                    walls.add(cell)
                elif ch == "@":
                    start = cell
                elif ch.isalnum():
                    goals[ch] = cell
        return Board("grid", width, len(rows), frozenset(walls), start,
                     tuple(goals[k] for k in sorted(goals)), words, names,
                     name=name)
    if data["kind"] == "grid":
        g = data["grid"]
        return Board("grid", int(g["width"]), int(g["height"]),
                     frozenset(g.get("blocked") or ()), int(g["start"]),
                     tuple(int(c) for c in g["goals"]), words, names, name=name)
    if data["kind"] == "sokoban" and "map" not in data:
        s = data["sokoban"]
        return Board("sokoban", int(s["width"]), int(s["height"]),
                     frozenset(s.get("walls") or ()),
                     (int(s["player"]), frozenset(s["boxes"])),
                     tuple(tuple(a) for a in s["goals"]), words, names,
                     multi_push=bool(s.get("multi_push", False)), name=name,
                     storage=tuple(s["storage"]))
    raise ValueError(f"{path}: scenario kind not modelled by the benchmark")
