"""The benchmark's workloads: which requests one cycle sends, and why.

A workload is a list of distinct CLI requests (one *cycle*) built from a
seed.  The runner sends the cycle at least twice, closed loop with one
client, and always finishes the cycle it is in.  A request's latency is the
faster of its sends in two consecutive cycles (the minimum of k runs), which
filters out the host's speed swings, and the percentiles are taken over the
cycle's requests, so they describe the same mix of requests on every commit.

Rung and shape sizes are chosen so that the median falls inside a group of
similar requests rather than on the edge between two groups, which keeps it
steady from seed to seed.

Generated scenarios come from pools built once by ``build_pool.py`` (the
seeded generator in ``gen.py``, filtered to a band of search work per group
measured by the benchmark's own BFS), stored with the digests of their
structured output at the commit that built them.  The seed picks which pool
entries a cycle uses and in what order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL = HERE / "pool"

VERB_ARGS = {
    "recognize": ("recognize",),
    "why": ("explain", "--question", "why"),
    "whynot": ("explain", "--question", "whynot"),
    "rank": ("rank",),
}


@dataclass(frozen=True)
class Rung:
    """One group of generated scenarios of similar size."""

    key: str
    params: dict  # generator arguments
    work: tuple  # accepted band of search work (states settled per request)
    per_cycle: int  # requests per cycle drawn from this group
    pool: int  # scenarios kept in the pool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    verbs: tuple
    rungs: tuple = ()


def tail_pct(requests: int) -> int:
    """The highest multiple of 5 that leaves at least ten of ``requests``
    values beyond it under linear interpolation.  It depends only on the
    cycle's size, so every commit reports the same percentile."""
    return 5 * int(20 * (requests - 11) / (requests - 1))


# 8 + 8 + 6 + 2 requests: the median falls in the middle of rung B.
GRID_RUNGS = (
    Rung("A", dict(side=20, n_goals=5, n_obs=20), (19_000, 23_000), 8, 24),
    Rung("B", dict(side=24, n_goals=6, n_obs=30), (45_000, 55_000), 8, 18),
    Rung("C", dict(side=28, n_goals=8, n_obs=40), (110_000, 132_000), 6, 18),
    Rung("D", dict(side=34, n_goals=10, n_obs=60), (280_000, 320_000), 2, 8),
)

# Two board shapes cover 2-3 boxes and 2-3 goals; both are filtered to the
# same band of search work, so the requests form one group of similar cost.
# Latency still varies about 13% between boards of equal search work, so a
# cycle draws most of each pool: 28 distinct boards keep the median steady
# from seed to seed.
SOKOBAN_SHAPES = (
    Rung("S2", dict(width=6, height=5, n_walls=5, n_boxes=2, n_goals=3,
                    n_obs=3), (22_000, 28_000), 14, 20),
    Rung("S3", dict(width=5, height=5, n_walls=3, n_boxes=3, n_goals=2,
                    n_obs=2), (22_000, 28_000), 14, 20),
)

WORKLOADS = {
    "bundled_suite": Workload(
        "bundled_suite",
        "all 17 bundled scenarios x 4 verbs: the byte-identity set; small grids "
        "make parse, render and CLI overhead visible and each scenario repeats "
        "once per verb",
        ("recognize", "why", "whynot", "rank")),
    "grid_ladder": Workload(
        "grid_ladder",
        "seeded grids 20x20 to 34x34, 5-10 goals, 20-60 observations: many "
        "moderate searches per request and no repeated query",
        ("recognize", "whynot"), GRID_RUNGS),
    "sokoban_deep": Workload(
        "sokoban_deep",
        "seeded Sokoban boards, 2-3 boxes and goals, short prefixes: few but "
        "huge searches, dominated by successor generation and "
        "counterfactual planning",
        ("whynot",), SOKOBAN_SHAPES),
}


@dataclass(frozen=True)
class Request:
    key: str  # unique within a cycle: "<scenario>/<verb>"
    verb: str
    scenario: Path
    digest: str  # sha256 of the structured output at the reference commit


def bundled_paths(root: Path) -> list:
    scenarios = root / "src" / "grexplain" / "scenarios"
    return sorted((scenarios / "bench").glob("*.yaml")) + [
        scenarios / "nav_crossroads.yaml", scenarios / "sokoban_pairs.yaml"]


def load_pool(name: str) -> dict:
    return json.loads((POOL / f"{name}.json").read_text())


def build(name: str, seed: int, root: Path, workdir: Path) -> list:
    """One cycle of requests for workload ``name``; generated scenarios are
    written under ``workdir``.  The same seed gives the same cycle."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    pool = load_pool(name)
    requests = []
    if not workload.rungs:
        for path in bundled_paths(root):
            for verb in workload.verbs:
                requests.append(Request(f"{path.stem}/{verb}", verb, path,
                                        pool[path.stem][verb]))
    for rung in workload.rungs:
        picks = rng.sample(pool[rung.key], rung.per_cycle)
        for i, entry in enumerate(picks):
            verb = workload.verbs[i % len(workload.verbs)]
            path = workdir / f"{entry['name']}.yaml"
            path.write_text(entry["scenario"])
            requests.append(Request(f"{entry['name']}/{verb}", verb, path,
                                    entry["digests"][verb]))
    rng.shuffle(requests)
    return requests
