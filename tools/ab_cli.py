"""Interleaved in-process timing of ``cli.main`` in two source trees.

    python3 tools/ab_cli.py --parent DIR --change DIR [--rounds N]

Each round starts one child process per tree, the parent first on odd
rounds and the change first on even ones.  A child imports ``grexplain``
from its tree's ``src/`` and sends three sets of requests through
``cli.main([..., "--format", "structured", "--out", FILE])``:

- ``bundled``: the 17 scenarios under that tree's
  ``src/grexplain/scenarios``, each as ``recognize``, ``explain --question
  why``, ``explain --question whynot`` and ``rank``;
- ``grid_ladder``: every board of the benchmark's ``grid_ladder`` pool, as
  ``recognize`` and ``explain --question whynot``;
- ``sokoban_deep``: every board of the ``sokoban_deep`` pool, as ``explain
  --question whynot``.

The pool boards are read from this checkout's ``perfbench/pool/*.json``,
so both trees get the same boards.  A child sends every set ``REPEATS``
times and prints each request's minimum time and the sha256 of its output
as JSON; a round takes about 25 s on a 2-core Xeon.

Per round the tool prints, for each set, the median of those minima on
each side and their ratio (change / parent), then one row per set with the
medians over all rounds.  It exits 1 if a request fails or the two trees
write different output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPEATS = 3  # sends of each request per child; the minimum is kept
POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool"

# Must match perfbench/workloads.py VERB_ARGS and the verbs of its
# WORKLOADS, the benchmark's request sets.
VERBS = {
    "recognize": ["recognize"],
    "why": ["explain", "--question", "why"],
    "whynot": ["explain", "--question", "whynot"],
    "rank": ["rank"],
}
POOL_VERBS = {"grid_ladder": ("recognize", "whynot"),
              "sokoban_deep": ("whynot",)}
SETS = ("bundled", *POOL_VERBS)


def requests(scenarios: Path, tmp: Path) -> list:
    """(set, key, scenario path, verb) for every request a child sends;
    pool boards are written under ``tmp``."""
    found = []
    paths = sorted(scenarios.glob("*.yaml")) + sorted(
        (scenarios / "bench").glob("*.yaml"))
    for path in paths:
        for verb in VERBS:
            found.append(("bundled", f"{path.relative_to(scenarios)}/{verb}",
                          path, verb))
    for name, verbs in POOL_VERBS.items():
        pool = json.loads((POOL / f"{name}.json").read_text())
        for entries in pool.values():
            for entry in entries:
                path = tmp / f"{entry['name']}.yaml"
                path.write_text(entry["scenario"])
                for verb in verbs:
                    found.append((name, f"{name}/{entry['name']}/{verb}",
                                  path, verb))
    return found


def child(tree: Path) -> None:
    """Time the bundled requests of ``tree`` and print the JSON result."""
    src = tree / "src"
    sys.path.insert(0, str(src))
    import grexplain.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"grexplain imported from {cli.__file__}, not {src}")

    best = {name: {} for name in SETS}
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out.json"
        sent = requests(src / "grexplain" / "scenarios", tmp)
        for _ in range(REPEATS):
            for name, key, path, verb in sent:
                argv = [*VERBS[verb], "--scenario", str(path),
                        "--format", "structured", "--out", str(out)]
                t0 = time.perf_counter()
                code = cli.main(argv)
                elapsed = time.perf_counter() - t0
                if code != 0:
                    raise SystemExit(f"{key}: exit {code}")
                best[name][key] = min(best[name].get(key, elapsed), elapsed)
                digests[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    print(json.dumps({"seconds": best, "digests": digests}))


def run_child(tree: Path) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(tree)],
        capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child.resolve())
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    medians = {side: {name: [] for name in SETS} for side in trees}
    digests = {}
    print(f"{'round':>6}  {'first':<6}  {'set':<12}  {'parent_ms':>9}"
          f"  {'change_ms':>9}  {'ratio':>6}", flush=True)
    for round_ in range(1, args.rounds + 1):
        order = ["parent", "change"] if round_ % 2 else ["change", "parent"]
        for side in order:
            result = run_child(trees[side])
            for name in SETS:
                medians[side][name].append(statistics.median(
                    result["seconds"][name].values()) * 1e3)
            digests[side] = result["digests"]
        for name in SETS:
            parent = medians["parent"][name][-1]
            change = medians["change"][name][-1]
            print(f"{round_:>6}  {order[0]:<6}  {name:<12}  {parent:>9.3f}"
                  f"  {change:>9.3f}  {change / parent:>6.3f}", flush=True)

    for name in SETS:
        parent, change = medians["parent"][name], medians["change"][name]
        ratios = [c / p for p, c in zip(parent, change)]
        wins = sum(r < 1 for r in ratios)
        print(f"{'median':>6}  {'':<6}  {name:<12}"
              f"  {statistics.median(parent):>9.3f}"
              f"  {statistics.median(change):>9.3f}"
              f"  {statistics.median(ratios):>6.3f}"
              f"  (change faster in {wins} of {len(ratios)} rounds)")
    differ = sorted(key for key in digests["parent"]
                    if digests["parent"][key] != digests["change"].get(key))
    if differ or digests["parent"].keys() != digests["change"].keys():
        print(f"outputs differ: {differ}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
