"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The smoke tests run every workload for one cycle, so the whole file takes
about two minutes.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import model  # noqa: E402
from workloads import WORKLOADS, build, bundled_paths, load_pool  # noqa: E402

from grexplain import (PlanningTask, load_scenario, mirror_posteriors,  # noqa: E402
                       optimal_cost)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    a = build(name, 7, ROOT, first)
    b = build(name, 7, ROOT, second)
    assert [r.key for r in a] == [r.key for r in b]
    assert [r.scenario.read_bytes() for r in a] == [r.scenario.read_bytes() for r in b]
    assert [r.key for r in build(name, 8, ROOT, first)] != [r.key for r in a]


@pytest.mark.parametrize("name", ["grid_ladder", "sokoban_deep"])
def test_pool_entries_come_from_the_seeded_generator(name):
    make = {"grid_ladder": gen.grid_scenario,
            "sokoban_deep": gen.sokoban_scenario}[name]
    pool = load_pool(name)
    for rung in WORKLOADS[name].rungs:
        entry = pool[rung.key][0]
        index = int(entry["name"].rsplit("_", 1)[1])
        board = make(random.Random(f"{name}:{rung.key}:{index}"),
                     name=entry["name"], **rung.params)
        assert gen.scenario_text(board) == entry["scenario"]


def _bundled_modelled():
    return [p for p in bundled_paths(ROOT)
            if p.stem.startswith(("grid", "nav")) or p.stem in ("sokoban_01",
                                                                 "sokoban_pairs")]


@pytest.mark.parametrize("path", _bundled_modelled(), ids=lambda p: p.stem)
def test_bfs_oracle_agrees_with_planner(path):
    board = gen.read_board(path)
    problem = load_scenario(path)
    orc = model.oracle(board)
    base = model.goal_distances(board, board.start)
    assert base == [optimal_cost(PlanningTask(problem.domain, problem.initial, g))
                    for g in problem.goals]
    assert orc.actions == [o.action.name for o in problem.observations]
    trace = mirror_posteriors(problem)
    assert list(trace.prior) == orc.prior
    assert [list(p) for p in trace.per_prefix] == orc.posteriors


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(name, trace):
    done = _run(["--workload", name, "--seed", "3", "--seconds", "0.01",
                 "--trace", trace])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] != 0
        assert f"{m['name']} " in done.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "bundled_suite", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
