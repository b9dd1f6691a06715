"""Regenerate the bundled 15-scenario benchmark suite.

Grids and Sokoban boards of varying size; observations follow a prefix of an
optimal plan to the first goal so every file validates.  Output is frozen
into src/grexplain/scenarios/bench/:

    PYTHONPATH=src python3 tools/gen_bench_suite.py [OUT_DIR]
"""
import random
import sys
from pathlib import Path

from grexplain import (GridSpec, SokobanSpec, compile_grid, compile_sokoban,
                       PlanningTask, build_explanan, mirror_posteriors,
                       optimal_plan, optimal_costs)
from grexplain.grids import parse_move
from grexplain.scenario import ScenarioFile, serialize_scenario, build_problem

OUT = Path(__file__).resolve().parent.parent / "src/grexplain/scenarios/bench"


def plan_directions(domain, initial, goal, count):
    plan = optimal_plan(PlanningTask(domain, initial, goal))
    assert plan is not None and len(plan) >= count, (plan, count)
    return [parse_move(a.name)[1] for a in plan[:count]]


def make_grid(rng, out_dir, name, width, height, n_blocks, n_goals, obs_count):
    while True:
        cells = list(range(1, width * height + 1))
        blocked = set(rng.sample(cells, n_blocks))
        free = [c for c in cells if c not in blocked]
        picks = rng.sample(free, n_goals + 1)
        start, goals = picks[0], picks[1:]
        try:
            spec = GridSpec(width, height, frozenset(blocked), start, tuple(goals))
        except Exception:
            continue
        domain, initial, goal_masks = compile_grid(spec)
        costs = optimal_costs(domain, initial, goal_masks)
        if any(c is None or c < obs_count + 1 for c in costs):
            continue
        obs = plan_directions(domain, initial, goal_masks[0], obs_count)
        scenario = ScenarioFile("grid", spec, tuple(obs), (), name)
        problem = build_problem(scenario)  # must validate
        # reject fully ambiguous boards: explanation stage must have work
        if not build_explanan(mirror_posteriors(problem)).entries:
            continue
        (out_dir / f"{name}.yaml").write_text(serialize_scenario(scenario))
        print("wrote", name, "costs", costs)
        return


SOKOBAN_BOARDS = [
    # (walls, player, boxes, storage, goals, multi, obs_count)
    dict(width=7, height=5, walls=[], player=9, boxes=[17], storage=[15, 19, 31],
         goals=[[15], [19], [31]], multi=False, obs=4),
    dict(width=7, height=5, walls=[10, 24], player=2, boxes=[16, 18],
         storage=[15, 19, 29, 33], goals=[[15, 19], [29, 33]], multi=False, obs=5),
    dict(width=8, height=5, walls=[12, 28], player=2, boxes=[19, 20],
         storage=[17, 22, 35, 38], goals=[[17, 22], [35, 38]], multi=True, obs=4),
    dict(width=6, height=5, walls=[], player=3, boxes=[15], storage=[13, 18, 27],
         goals=[[13], [18], [27]], multi=False, obs=3),
    dict(width=7, height=5, walls=[9, 13], player=4, boxes=[17, 18],
         storage=[15, 16, 20, 21], goals=[[15, 16], [20, 21]], multi=True, obs=4),
    dict(width=6, height=4, walls=[8], player=2, boxes=[14, 15],
         storage=[13, 16, 21, 22], goals=[[13, 16], [21, 22]], multi=False, obs=4),
    dict(width=9, height=5, walls=[1, 11, 13, 31, 33], player=2, boxes=[22, 23],
         storage=[20, 21, 25, 26, 24, 41], goals=[[20, 21], [25, 26], [24, 41]],
         multi=True, obs=6),
]


def make_sokoban(out_dir, name, width, height, walls, player, boxes, storage,
                 goals, multi, obs):
    spec = SokobanSpec(width, height, frozenset(walls), player, tuple(boxes),
                       tuple(storage), tuple(tuple(g) for g in goals), multi)
    domain, initial, goal_masks = compile_sokoban(spec)
    costs = optimal_costs(domain, initial, goal_masks)
    assert all(c is not None for c in costs), (name, costs)
    assert costs[0] >= obs, (name, costs, obs)
    words = plan_directions(domain, initial, goal_masks[0], obs)
    scenario = ScenarioFile("sokoban", spec, tuple(words), (), name)
    build_problem(scenario)
    (out_dir / f"{name}.yaml").write_text(serialize_scenario(scenario))
    print("wrote", name, "costs", costs)


grid_params = [
    (8, 6, 5, 3, 5), (10, 8, 8, 3, 6), (12, 8, 10, 3, 7), (9, 9, 8, 2, 6),
    (14, 10, 14, 3, 8), (16, 12, 20, 3, 8), (10, 10, 10, 4, 6), (20, 15, 30, 3, 8),
]


def main(out_dir=OUT):
    """Write the 15 bench scenarios into ``out_dir`` (same seed, same bytes)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(20240917)
    for i, (w, h, b, g, o) in enumerate(grid_params, 1):
        make_grid(rng, out_dir, f"grid_{i:02d}", w, h, b, g, o)

    for i, board in enumerate(SOKOBAN_BOARDS, 1):
        kw = dict(board)
        obs = kw.pop("obs")
        make_sokoban(out_dir, f"sokoban_{i:02d}", obs=obs, **kw)

    print("total:", len(list(out_dir.glob('*.yaml'))))


if __name__ == "__main__":
    main(*sys.argv[1:])
