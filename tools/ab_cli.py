"""Interleaved in-process timing of ``cli.main`` in two source trees.

    python3 tools/ab_cli.py --parent DIR --change DIR [--rounds N]

Each round starts one child process per tree, the parent first on odd
rounds and the change first on even ones.  A child imports ``grexplain``
from its tree's ``src/`` and sends every bundled request through
``cli.main([..., "--format", "structured", "--out", FILE])``: the 17
scenarios under that tree's ``src/grexplain/scenarios``, each as
``recognize``, ``explain --question why``, ``explain --question whynot`` and
``rank``.  It sends the whole set ``REPEATS`` times and prints each request's minimum
time and the sha256 of its output as JSON.

Per round the tool prints the median of those minima for each side and
their ratio (change / parent), then the medians over all rounds.  It exits
1 if a request fails or the two trees write different output.
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

REPEATS = 5  # sends of each request per child; the minimum is kept

# Must match perfbench/workloads.py VERB_ARGS, the benchmark's request set.
VERBS = {
    "recognize": ["recognize"],
    "why": ["explain", "--question", "why"],
    "whynot": ["explain", "--question", "whynot"],
    "rank": ["rank"],
}


def child(tree: Path) -> None:
    """Time the bundled requests of ``tree`` and print the JSON result."""
    src = tree / "src"
    sys.path.insert(0, str(src))
    import grexplain.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"grexplain imported from {cli.__file__}, not {src}")

    scenarios = src / "grexplain" / "scenarios"
    paths = sorted(scenarios.glob("*.yaml")) + sorted(
        (scenarios / "bench").glob("*.yaml"))
    best, digests = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        for _ in range(REPEATS):
            for path in paths:
                for verb, args in VERBS.items():
                    key = f"{path.relative_to(scenarios)}/{verb}"
                    argv = [*args, "--scenario", str(path),
                            "--format", "structured", "--out", str(out)]
                    t0 = time.perf_counter()
                    code = cli.main(argv)
                    elapsed = time.perf_counter() - t0
                    if code != 0:
                        raise SystemExit(f"{key}: exit {code}")
                    best[key] = min(best.get(key, elapsed), elapsed)
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
    medians = {"parent": [], "change": []}
    digests = {}
    print(f"{'round':>6}  {'first':<6}  {'parent_ms':>9}  {'change_ms':>9}"
          f"  {'ratio':>6}", flush=True)
    for round_ in range(1, args.rounds + 1):
        order = ["parent", "change"] if round_ % 2 else ["change", "parent"]
        for side in order:
            result = run_child(trees[side])
            medians[side].append(
                statistics.median(result["seconds"].values()) * 1e3)
            digests[side] = result["digests"]
        parent, change = medians["parent"][-1], medians["change"][-1]
        print(f"{round_:>6}  {order[0]:<6}  {parent:>9.3f}  {change:>9.3f}"
              f"  {change / parent:>6.3f}", flush=True)

    ratios = [c / p for p, c in zip(medians["parent"], medians["change"])]
    wins = sum(r < 1 for r in ratios)
    print(f"{'median':>6}  {'':<6}  {statistics.median(medians['parent']):>9.3f}"
          f"  {statistics.median(medians['change']):>9.3f}"
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
