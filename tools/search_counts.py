"""Search counts of recognition on the bundled and benchmark-pool boards.

    python3 tools/search_counts.py

The boards are the 17 bundled scenarios that the ``bundled_suite`` workload
sends, then every board of the ``grid_ladder`` and ``sokoban_deep`` pools in
``perfbench/pool/``, which is only read.  Each board is compiled afresh and
recognized once by ``mirror_posteriors`` at the default budget, with the
planner sweep that the recognizer calls and the domain's
``distance_tables`` wrapped to count:

- ``path``: the path the recognizer took (the ``recognizer`` module
  docstring): ``tables`` where ``distance_tables`` built them, ``sweeps``
  otherwise;
- ``sweeps``: the planner sweeps run, the one from the initial state
  included;
- ``dequeues``: the states those sweeps dequeued, and ``obs_dequeues``, the
  part dequeued by the sweeps from observed states;
- ``largest``: the most states one of those sweeps dequeued;
- ``rows`` and ``states``: the successor rows filled and the states
  interned, read off the domain afterwards.  On a grid ``states`` is the
  board's cell count, because every cell is a state from the compile.

It prints one row per board, then one total row per pool (``bundled``,
``grid_ladder``, ``sokoban_deep``), whose ``largest`` is the pool's
maximum.
"""

import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from grexplain import recognizer  # noqa: E402
from grexplain.scenario import (build_problem, load_scenario,  # noqa: E402
                                parse_scenario)
from workloads import bundled_paths, load_pool  # noqa: E402

POOLS = ("bundled", "grid_ladder", "sokoban_deep")
COLUMNS = ("sweeps", "dequeues", "obs_dequeues", "largest", "rows", "states")


def board_counts(problem) -> dict:
    """The counts of one recognition of ``problem`` (module docstring)."""
    domain, sweep, sizes, path = problem.domain, recognizer.sweep, [], "sweeps"
    tables = domain.distance_tables

    def counted_sweep(*args):
        result = sweep(*args)
        sizes.append(result.dequeued)
        return result

    def spied_tables(*args):
        nonlocal path
        found = tables(*args)
        path = "sweeps" if found is None else "tables"
        return found

    recognizer.sweep, domain.distance_tables = counted_sweep, spied_tables
    try:
        recognizer.mirror_posteriors(problem)
    finally:
        recognizer.sweep = sweep
        del domain.distance_tables
    return {"path": path,
            "sweeps": len(sizes), "dequeues": sum(sizes),
            "obs_dequeues": sum(sizes[1:]), "largest": max(sizes),
            "rows": sum(row is not None for row in domain.rows),
            "states": len(domain.states)}


def problems(pool: str):
    """(board name, freshly built problem) for every board of ``pool``."""
    if pool == "bundled":
        for path in bundled_paths(ROOT):
            yield path.stem, load_scenario(path)
        return
    for entries in load_pool(pool).values():
        for entry in entries:
            data = yaml.safe_load(entry["scenario"])
            yield entry["name"], build_problem(parse_scenario(data,
                                                              entry["name"]))


def row(pool: str, board: str, counts: dict) -> str:
    return (f"{pool:<13}  {board:<24}  {counts['path']:<20}  "
            + "  ".join(f"{counts[c]:>12,}" for c in COLUMNS))


def main() -> int:
    print(f"{'pool':<13}  {'board':<24}  {'path':<20}  "
          + "  ".join(f"{c:>12}" for c in COLUMNS))
    totals = []
    for pool in POOLS:
        boards = []
        for board, problem in problems(pool):
            boards.append(board_counts(problem))
            print(row(pool, board, boards[-1]))
        total = {column: (max if column == "largest" else sum)(
            counts[column] for counts in boards) for column in COLUMNS}
        total["path"] = "/".join(sorted({c["path"] for c in boards}))
        totals.append(row(pool, "(all)", total))
    print("\n".join(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
