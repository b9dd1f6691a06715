"""Build the scenario pools and reference digests the benchmark checks against.

    PYTHONPATH=src python3 perfbench/build_pool.py

For each rung of ``grid_ladder`` and each shape of ``sokoban_deep`` it draws
candidates from the seeded generator, keeps those whose search work (states
a uniform-cost search would settle, counted with the benchmark's own BFS)
lies in the group's band, and stores their scenario text.  Then it
runs every stored scenario, and every bundled scenario, through each verb of
its workload with ``--format structured`` and records the SHA-256 of the
output: the byte-identity reference.  Run it again only to accept a
documented change of output.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import gen
from model import goal_distances, layers, oracle
from workloads import POOL, VERB_ARGS, WORKLOADS, bundled_paths

ROOT = Path(__file__).resolve().parent.parent


def search_work(board) -> int:
    """States a uniform-cost search settles over one whynot request: one
    ball of radius d-1 per (state, goal) query of the recognizer, and two
    balls of radius d (search, then plan reconstruction) per counterfactual
    plan."""
    orc = oracle(board)
    balls = {}

    def ball(i, radius):
        if i not in balls:
            reach = max(d for d in goal_distances(board, orc.states[i])
                        if d is not None)
            dist, _ = layers(board, orc.states[i], reach)
            balls[i] = sorted(dist.values())
        depths = balls[i]
        return sum(1 for d in depths if d <= radius)

    work = 0
    for i, state in enumerate(orc.states):
        for d in goal_distances(board, state):
            if d:
                work += ball(i, d - 1)
    for h in orc.counterfactual:
        group = [e for e in orc.entries if e[1] == h]
        if not group:
            continue
        worst = min(e[3] for e in group)
        marker = min(e[2] for e in group if e[3] == worst)
        d = goal_distances(board, orc.states[marker - 1])[h]
        if d:
            work += 2 * ball(marker - 1, d)
    return work


def build_rung(workload: str, rung) -> list:
    """The first ``rung.pool`` seeded candidates whose search work lies in
    the rung's band."""
    make = {"grid_ladder": gen.grid_scenario,
            "sokoban_deep": gen.sokoban_scenario}[workload]
    low, high = rung.work
    kept = []
    for i in range(40 * rung.pool):
        rng = random.Random(f"{workload}:{rung.key}:{i}")
        board = make(rng, name=f"{rung.key.lower()}_{i:03d}", **rung.params)
        work = search_work(board)
        if low <= work <= high:
            kept.append({"name": board.name, "work": work,
                         "scenario": gen.scenario_text(board)})
            if len(kept) == rung.pool:
                print(f"{workload} {rung.key}: {i + 1} candidates", flush=True)
                return kept
    raise SystemExit(f"{workload} {rung.key}: too few candidates in {rung.work}")


def digest(cli_main, verb: str, scenario: Path, out: Path) -> str:
    code = cli_main([*VERB_ARGS[verb], "--scenario", str(scenario),
                     "--format", "structured", "--out", str(out)])
    if code != 0:
        raise SystemExit(f"{scenario} {verb}: exit status {code}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from grexplain.cli import main as cli_main

    POOL.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        out = tmp / "out.json"
        bundled = WORKLOADS["bundled_suite"]
        ref = {p.stem: {v: digest(cli_main, v, p, out) for v in bundled.verbs}
               for p in bundled_paths(ROOT)}
        (POOL / "bundled_suite.json").write_text(json.dumps(ref, indent=1) + "\n")
        for name in ("grid_ladder", "sokoban_deep"):
            workload = WORKLOADS[name]
            pool = {}
            for rung in workload.rungs:
                entries = build_rung(name, rung)
                for entry in entries:
                    path = tmp / f"{entry['name']}.yaml"
                    path.write_text(entry["scenario"])
                    entry["digests"] = {v: digest(cli_main, v, path, out)
                                        for v in workload.verbs}
                pool[rung.key] = entries
            (POOL / f"{name}.json").write_text(json.dumps(pool, indent=1) + "\n")


if __name__ == "__main__":
    main()
