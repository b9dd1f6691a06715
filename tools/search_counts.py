"""Search counts of recognition on the bundled and benchmark-pool boards.

    python3 tools/search_counts.py

The boards are the benchmark's, as ``tools/boards.py`` lists them.  Each
is loaded afresh by ``load_scenario`` and recognized once by
``mirror_posteriors`` at the default budget and asked why not, with the
planner sweeps that recognition and planning call wrapped to count:

- ``path``: the cost source the recognizer took (the ``recognizer`` module
  docstring): ``tables`` where no sweep ran, so the domain's goal costs
  (``goal_costs``) priced every row, ``sweeps`` otherwise;
- ``sweeps``: the planner sweeps run, the one from the initial state
  included, and 0 on the tables path;
- ``dequeues``: the states those sweeps dequeued, and ``obs_dequeues``, the
  part dequeued by the sweeps from observed states, both 0 on the tables
  path;
- ``largest``: the most states one of those sweeps dequeued;
- ``rows`` and ``states``: the successor rows filled and the states
  interned, read off the domain after recognition.  On a grid ``states``
  is the board's cell count, because every cell is a state from the
  compile;
- ``plan_sweeps``: the planner sweeps that counterfactual planning runs
  for the board's why-not answer (``answer_why_not`` on the recognition's
  explanation list), 0 where the domain's ``shortest_path`` answered every
  ``optimal_plan`` call, as on a grid.

It prints one row per board, then one total row per pool (``bundled``,
``grid_ladder``, ``sokoban_deep``), whose ``largest`` is the pool's
maximum.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

from boards import boards  # noqa: E402
from grexplain import explainer, planner, recognizer  # noqa: E402
from grexplain.scenario import load_scenario  # noqa: E402

COLUMNS = ("sweeps", "dequeues", "obs_dequeues", "largest", "rows", "states",
           "plan_sweeps")


def board_counts(problem) -> dict:
    """The counts of one recognition of ``problem`` and of its why-not
    answer (module docstring)."""
    domain, sweep, sizes, plans = problem.domain, planner.sweep, [], []

    def counted_into(found):
        def counted_sweep(*args):
            result = sweep(*args)
            found.append(result.dequeued)
            return result
        return counted_sweep

    recognizer.sweep = counted_into(sizes)
    try:
        trace = recognizer.mirror_posteriors(problem)
    finally:
        recognizer.sweep = sweep
    counts = {"path": "sweeps" if sizes else "tables",
              "sweeps": len(sizes), "dequeues": sum(sizes),
              "obs_dequeues": sum(sizes[1:]),
              "largest": max(sizes, default=0),
              "rows": sum(row is not None for row in domain.rows),
              "states": len(domain.states)}
    planner.sweep = counted_into(plans)
    try:
        explainer.answer_why_not(problem, explainer.build_explanan(trace))
    finally:
        planner.sweep = sweep
    return dict(counts, plan_sweeps=len(plans))


def problems(workdir: Path):
    """(pool, board name, freshly loaded problem) for every board; the
    bundled scenarios form the ``bundled`` pool."""
    for workload, rung, path in boards(ROOT, workdir):
        pool = "bundled" if rung is None else workload
        yield pool, path.stem, load_scenario(path)


def row(pool: str, board: str, counts: dict) -> str:
    return (f"{pool:<13}  {board:<24}  {counts['path']:<20}  "
            + "  ".join(f"{counts[c]:>12,}" for c in COLUMNS))


def main() -> int:
    print(f"{'pool':<13}  {'board':<24}  {'path':<20}  "
          + "  ".join(f"{c:>12}" for c in COLUMNS))
    pools = {}
    with tempfile.TemporaryDirectory() as tmp:
        for pool, board, problem in problems(Path(tmp)):
            counts = board_counts(problem)
            pools.setdefault(pool, []).append(counts)
            print(row(pool, board, counts))
    for pool, counted in pools.items():
        total = {column: (max if column == "largest" else sum)(
            counts[column] for counts in counted) for column in COLUMNS}
        total["path"] = "/".join(sorted({c["path"] for c in counted}))
        print(row(pool, "(all)", total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
