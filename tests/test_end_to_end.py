"""End-to-end differential oracle: drawn boards sent through ``cli.main``
against the benchmark's own board model and BFS.

``perfbench/runner.py`` is loaded read-only by path, with ``perfbench/`` on
``sys.path`` as its modules expect, so this test and the benchmark's output
check apply the same rule (``runner.oracle_problems``) to the same board
model (``model.Board``) and scenario text (``gen.scenario_text``).
"""

import dataclasses
import json
import runpy
import sys
import tempfile
import types
from pathlib import Path

from hypothesis import given, settings, strategies as st

from grexplain.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
runner = types.SimpleNamespace(**runpy.run_path(str(PERFBENCH / "runner.py")))
Board = runner.model.Board


def subsets(cells, max_size=None):
    """Lists of distinct cells of ``cells``, which may be empty."""
    if not cells:
        return st.just([])
    return st.lists(st.sampled_from(cells), max_size=max_size, unique=True)


@st.composite
def walks(draw, board):
    """``board`` with 0-6 observations: direction words of a walk along
    ``Board.successors``."""
    state, words = board.start, []
    for _ in range(draw(st.integers(0, 6))):
        steps = board.successors(state)
        if not steps:
            break
        name, state = draw(st.sampled_from(steps))
        words.append(name.split("-")[1])
    return dataclasses.replace(board, observations=tuple(words))


@st.composite
def grids(draw):
    """A grid of up to 6x6 cells with walls and 1-4 distinct goal cells."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = range(1, width * height + 1)
    walls = frozenset(draw(subsets(cells, max_size=len(cells) // 3)))
    free = [c for c in cells if c not in walls]
    start = draw(st.sampled_from(free))
    goals = draw(st.lists(st.sampled_from(free), min_size=1, max_size=4,
                          unique=True))
    return Board("grid", width, height, walls, start, tuple(goals),
                 name="drawn")


@st.composite
def mirrored_grids(draw):
    """A grid whose walls are mirrored about its middle column, the start
    on that column and each goal paired with its mirror image."""
    half, height = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    width = 2 * half + 1

    def mirror(cell):
        row, col = divmod(cell - 1, width)
        return row * width + (width - 1 - col) + 1

    left = [r * width + c + 1 for r in range(height) for c in range(half)]
    middle = [r * width + half + 1 for r in range(height)]
    start = draw(st.sampled_from(middle))
    picks = draw(st.lists(st.sampled_from(left), min_size=1, max_size=2,
                          unique=True))
    walls = set(draw(subsets(
        [c for c in left + middle if c not in picks and c != start])))
    walls |= {mirror(c) for c in walls}
    goals = tuple(g for c in picks for g in (c, mirror(c)))
    return Board("grid", width, height, frozenset(walls), start, goals,
                 name="drawn")


@st.composite
def sokobans(draw):
    """A Sokoban board of 3x3 to 5x4 cells with 1-2 boxes off the border,
    up to two walls, 2-3 storage cells and 1-3 distinct goal assignments,
    with ``multi_push`` on or off.  (On smaller or more walled boards almost
    no goal is reachable.)"""
    width, height = draw(st.integers(3, 5)), draw(st.integers(3, 4))
    cells = range(1, width * height + 1)
    inner = [r * width + c + 1 for r in range(1, height - 1)
             for c in range(1, width - 1)]
    boxes = draw(st.lists(st.sampled_from(inner), min_size=1, max_size=2,
                          unique=True))
    player = draw(st.sampled_from([c for c in cells if c not in boxes]))
    walls = frozenset(draw(subsets(
        [c for c in cells if c != player and c not in boxes], max_size=2)))
    storage = tuple(draw(st.lists(
        st.sampled_from([c for c in cells if c not in walls and c not in boxes]),
        min_size=2, max_size=3, unique=True)))
    goals = tuple(draw(st.lists(
        st.lists(st.sampled_from(storage), min_size=1, max_size=len(boxes),
                 unique=True).map(tuple),
        min_size=1, max_size=3, unique_by=frozenset)))
    return Board("sokoban", width, height, walls, (player, frozenset(boxes)),
                 goals, multi_push=draw(st.booleans()), name="drawn",
                 storage=storage)


@settings(max_examples=150, deadline=None)
@given(st.one_of(grids(), mirrored_grids(), sokobans()).flatmap(walks))
def test_every_verb_agrees_with_the_benchmark_oracle(board):
    """Each benchmark verb exits 2 exactly where the model has no answer
    (no reachable goal, or no entries for why and why-not) and otherwise
    exits 0 with an output the benchmark's oracle check accepts."""
    try:
        entries = runner.model.oracle(board).entries
    except ValueError:
        entries = None
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "board.yaml"), Path(tmp, "out.json")
        path.write_text(runner.gen.scenario_text(board))
        for verb, args in runner.VERB_ARGS.items():
            code = main([*args, "--scenario", str(path),
                         "--format", "structured", "--out", str(out)])
            if entries is None or (not entries and verb in ("why", "whynot")):
                assert code == 2, verb
                continue
            assert code == 0, verb
            request = types.SimpleNamespace(verb=verb, scenario=path)
            payload = json.loads(out.read_text())
            assert runner.oracle_problems(request, payload) == [], verb
