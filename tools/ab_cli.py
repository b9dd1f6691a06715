"""Interleaved timing of ``grexplain`` start-up, of fresh-process
requests and of in-process ``cli.main`` requests in two source trees.

    python3 tools/ab_cli.py --parent DIR --change DIR [--rounds N]

Each round runs both trees, the parent first on odd rounds and the change
first on even ones.  Every process of round r, on both sides, runs under
``PYTHONHASHSEED=r``, so the two sides of a pair share one hash layout and
the rounds vary it, rather than each process drawing its own.  It first
times ``import grexplain.cli`` (the ``setup`` row): ``IMPORTS`` fresh
interpreters per tree, alternating between the trees, each importing from
a copy of the tree's ``src/`` made without ``__pycache__`` and run with
``PYTHONDONTWRITEBYTECODE=1``.
So grexplain compiles from source on every import while the standard
library and PyYAML load their installed bytecode, as in the benchmark's
fresh checkout.  Each import time is scaled to the reference host speed
by this checkout's ``perfbench/hostspeed.py`` probe, taken in the same
interpreter just before the import.  Nothing of grexplain is loaded then,
so the probe runs on the same heap in both trees; a probe taken after the
call (as the benchmark's ``setup_s`` takes it) runs on what the call left,
and read the change's Sokoban ``rank`` about 7% faster than the parent's
while the call took the same time.  A round's value is each tree's median.

The start-up rows (``grid/recognize`` to ``sokoban/rank``) time the same
way what a one-shot call costs: a fresh interpreter imports
``grexplain.cli`` and sends one request through ``cli.main([...,
"--format", "structured", "--out", FILE])``, timed from the import to the
return.  There is one row for each scenario kind and verb the workloads
send, the grid kind on the tree's bundled ``nav_crossroads`` and the
Sokoban kind on its ``sokoban_pairs``.

It then starts one child process per tree.  A child imports ``grexplain``
from its tree's ``src/`` and sends one set of requests per benchmark
workload through ``cli.main([..., "--format", "structured", "--out",
FILE])``, each verb with the arguments of ``perfbench/workloads.py``'s
``VERB_ARGS``:

- ``bundled_suite``: the 17 bundled scenarios of that tree, each with every
  verb of the workload (``recognize``, ``why``, ``whynot`` and ``rank``);
- ``grid_ladder`` and ``sokoban_deep``: every board of the workload's pool,
  each with every verb of that workload.

Verbs and pool boards are read from this checkout's ``perfbench/``, so
both trees get the same requests.  A child sends every set ``REPEATS``
times.  Before each send it runs ``gc.collect()`` and then ``gc.freeze()``,
so a send starts with empty generations and is timed with only the
collections its own objects trigger, not ones that earlier requests' objects
left due.  Each send is scaled to the reference host speed by the mean of
the ``hostspeed`` probes taken just before and just after it, as the
benchmark's runner scales its requests, and the child prints each
request's minimum scaled time and the sha256 of its output as JSON; a
round takes about 30 s on a 2-core Xeon.

Per round the tool prints the ``setup`` and start-up times and, for each
set, the
median of those minima on each side and their ratio (change / parent),
then one row per set with the medians over all rounds, the ratio's range
over the rounds, each side's quartiles over the rounds, the rounds the
change won and whether the change meets the gain rule (``gain_rule``).
It exits 1 if a request fails or the two trees write different output,
and 2, before either tree is copied, if ``--rounds`` (default 10) is
below 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPEATS = 3  # sends of each request per child; the minimum is kept
IMPORTS = 5  # fresh-interpreter imports of grexplain.cli per tree per round
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from hostspeed import REFERENCE_S, probe  # noqa: E402
from workloads import VERB_ARGS, WORKLOADS, bundled_paths, load_pool  # noqa: E402

SETS = tuple(WORKLOADS)
KINDS = {"grid": "nav_crossroads", "sokoban": "sokoban_pairs"}
STARTUP = {f"{kind}/{verb}": (scenario, verb)
           for kind, scenario in KINDS.items() for verb in VERB_ARGS}
ROWS = ("setup", *STARTUP, *SETS)

IMPORT_PROBE = ("import sys, time; src, bench, *argv = sys.argv[1:]; "
                "sys.path[:0] = [src, bench]; "
                "from hostspeed import REFERENCE_S, probe; "
                "speed = REFERENCE_S / probe(); "
                "t = time.perf_counter(); import grexplain.cli; "
                "code = grexplain.cli.main(argv) if argv else 0; "
                "t = time.perf_counter() - t; "
                "print(t * speed); print(grexplain.cli.__file__); "
                "sys.exit(code)")


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile) of ``values``; a single
    value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def gain_rule(parent: list, change: list) -> dict:
    """The gain test over paired timings, one pair per round, lower is
    better: each side's quartiles, the rounds the change won (ties count
    for neither side), and whether the change won at least nine rounds in
    ten with a median more than the parent's interquartile range below
    the parent's median."""
    before, after = quartiles(parent), quartiles(change)
    wins = sum(c < p for p, c in zip(parent, change))
    met = (10 * wins >= 9 * len(parent)
           and before[1] - after[1] > before[2] - before[0])
    return {"parent": before, "change": after, "wins": wins, "met": met}


def source_copy(tree: Path, dest: Path) -> Path:
    """A copy of ``tree``'s ``src/`` at ``dest``, without bytecode."""
    return shutil.copytree(tree / "src", dest,
                           ignore=shutil.ignore_patterns("__pycache__"))


def startup_argv(src: Path, row: str, out: Path) -> list:
    """The request of start-up row ``row`` on the source copy ``src``,
    writing its structured output to ``out``."""
    scenario, verb = STARTUP[row]
    path = src / "grexplain" / "scenarios" / f"{scenario}.yaml"
    return [*VERB_ARGS[verb], "--scenario", str(path), "--format",
            "structured", "--out", str(out)]


def import_ms(src: Path, seed: int, argv: list = ()) -> float:
    """Milliseconds a fresh interpreter takes to import ``grexplain.cli``
    from ``src`` and then, if ``argv`` is given, to send that request
    through ``cli.main``, under hash seed ``seed`` and writing no bytecode,
    at the reference host speed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED=str(seed))
    env.pop("PYTHONPYCACHEPREFIX", None)  # it would recompile the stdlib too
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src),
                           str(PERFBENCH), *argv], capture_output=True,
                          text=True, env=env, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{src}: {done.stderr.strip()}")
    seconds, path = done.stdout.splitlines()
    if not Path(path).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"grexplain imported from {path}, not {src}")
    return float(seconds) * 1e3


def requests(tree: Path, tmp: Path) -> list:
    """(set, key, argv) for every request a child sends to the tree at
    ``tree``, ``argv`` without the output options; pool boards are written
    under ``tmp``."""
    found = []
    for name, workload in WORKLOADS.items():
        if workload.rungs:
            paths = []
            for entries in load_pool(name).values():
                for entry in entries:
                    path = tmp / f"{entry['name']}.yaml"
                    path.write_text(entry["scenario"])
                    paths.append(path)
        else:
            paths = bundled_paths(tree)
        for path in paths:
            for verb in workload.verbs:
                found.append((name, f"{name}/{path.stem}/{verb}",
                              [*VERB_ARGS[verb], "--scenario", str(path)]))
    return found


def child(tree: Path) -> None:
    """Time every request of ``tree`` and print the JSON result."""
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
        sent = requests(tree, tmp)
        for _ in range(REPEATS):
            before = probe()
            for name, key, argv in sent:
                gc.collect()
                gc.freeze()
                t0 = time.perf_counter()
                code = cli.main([*argv, "--format", "structured",
                                 "--out", str(out)])
                elapsed = time.perf_counter() - t0
                after = probe()
                if code != 0:
                    raise SystemExit(f"{key}: exit {code}")
                scaled = elapsed * 2 * REFERENCE_S / (before + after)
                best[name][key] = min(best[name].get(key, scaled), scaled)
                digests[key] = hashlib.sha256(out.read_bytes()).hexdigest()
                before = after
    print(json.dumps({"seconds": best, "digests": digests}))


def run_child(tree: Path, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(tree)],
        capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONHASHSEED=str(seed)))
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
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, got {args.rounds}")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    medians = {side: {name: [] for name in ROWS} for side in trees}
    digests = {}
    print(f"{'round':>6}  {'first':<6}  {'set':<17}  {'parent_ms':>9}"
          f"  {'change_ms':>9}  {'ratio':>6}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        sources = {side: source_copy(tree, Path(tmp) / side)
                   for side, tree in trees.items()}
        for round_ in range(1, args.rounds + 1):
            order = ["parent", "change"] if round_ % 2 else ["change", "parent"]
            imports = {side: {row: [] for row in ("setup", *STARTUP)}
                       for side in trees}
            for _ in range(IMPORTS):
                for row in imports["parent"]:
                    for side in order:
                        out = Path(tmp) / f"{side}.json"
                        argv = (startup_argv(sources[side], row, out)
                                if row in STARTUP else ())
                        imports[side][row].append(
                            import_ms(sources[side], round_, argv))
                        if argv:
                            digests.setdefault(side, {})[row] = (
                                hashlib.sha256(out.read_bytes()).hexdigest())
            for side in order:
                for row, times in imports[side].items():
                    medians[side][row].append(statistics.median(times))
                result = run_child(trees[side], round_)
                for name in SETS:
                    medians[side][name].append(statistics.median(
                        result["seconds"][name].values()) * 1e3)
                digests[side].update(result["digests"])
            for name in ROWS:
                parent = medians["parent"][name][-1]
                change = medians["change"][name][-1]
                print(f"{round_:>6}  {order[0]:<6}  {name:<17}  {parent:>9.3f}"
                      f"  {change:>9.3f}  {change / parent:>6.3f}", flush=True)

    for name in ROWS:
        parent, change = medians["parent"][name], medians["change"][name]
        ratios = [c / p for p, c in zip(parent, change)]
        rule = gain_rule(parent, change)
        (p1, p2, p3), (c1, c2, c3) = rule["parent"], rule["change"]
        print(f"{'median':>6}  {'':<6}  {name:<17}  {p2:>9.3f}  {c2:>9.3f}"
              f"  {statistics.median(ratios):>6.3f}"
              f"  (ratios {min(ratios):.3f}-{max(ratios):.3f};"
              f" quartiles {p1:.3f}-{p3:.3f} and {c1:.3f}-{c3:.3f};"
              f" change faster in {rule['wins']} of {len(ratios)} rounds;"
              f" gain rule {'met' if rule['met'] else 'not met'})")
    differ = sorted(key for key in digests["parent"]
                    if digests["parent"][key] != digests["change"].get(key))
    if differ or digests["parent"].keys() != digests["change"].keys():
        print(f"outputs differ: {differ}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
