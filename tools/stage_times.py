"""In-process stage times of the benchmark's requests, per pool.

    python3 tools/stage_times.py

The requests are the benchmark's: every board that ``tools/boards.py``
lists with each of its workload's verbs, sent through ``grexplain.cli.main``
with ``--format structured``.  For each send, wrappers installed just
before it and removed just after it time seven stages:

- ``parse``: ``scenario.parse_scenario_file`` (read, YAML, spec checks);
- ``compile``: ``scenario._compile``;
- ``replay``: ``scenario.build_problem`` less its ``_compile``, that is
  direction words, observation steps and the problem's checks;
- ``fill``: the calls of the compiled domain's ``expand``, each of which
  computes one successor row;
- ``recognize``: ``mirror_posteriors``, less the rows it filled;
- ``plan``: ``explainer.optimal_plan`` (counterfactual actions), less the
  rows it filled;
- ``encode``: ``json.dumps``, the structured output's ``indent=2`` encode.

``request`` is the whole ``main`` call and ``other`` is what the stages
leave of it (the rest of the explanation, rendering, argument parsing, the
write).  Each request is sent ``RUNS`` times and a stage's time for it
is the median over those sends.  A pool's row is the mean over its
requests of those medians, in ms, each with its share of the request.  The
pools are ``bundled``, the four ``grid_ladder`` rungs and ``sokoban_deep``.
The wrappers themselves cost about 0.2 us per filled row, so times are for
comparing two trees with this same tool, not with the benchmark.
"""

import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / d) for d in ("src", "perfbench", "tools")]

from boards import boards  # noqa: E402
from grexplain import cli, explainer, scenario  # noqa: E402
from workloads import VERB_ARGS, WORKLOADS  # noqa: E402

RUNS = 7
POOLS = {"bundled_suite": "bundled", "grid_ladder": "grid_ladder {}",
         "sokoban_deep": "sokoban_deep"}  # workload -> pool, by rung
STAGES = ("parse", "compile", "replay", "fill", "recognize", "plan", "encode")


def send_stages(path, verb: str, out) -> dict:
    """Seconds per stage, plus ``request``, of one send of ``verb`` on the
    scenario file ``path``, writing its output to ``out``."""
    seconds = dict.fromkeys(STAGES, 0.0)

    def timed(stage, fn, less=None):
        """``fn`` timed into ``stage``, less what it spent in stage
        ``less``."""
        def wrapper(*args, **kwargs):
            inner = seconds[less] if less else 0.0
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[stage] += perf_counter() - started
                if less:
                    seconds[stage] -= seconds[less] - inner
        return wrapper

    compile_ = timed("compile", scenario._compile)

    def compiled(spec):
        found = compile_(spec)
        found[0].expand = timed("fill", found[0].expand)
        return found

    patches = [(scenario, "parse_scenario_file",
                timed("parse", scenario.parse_scenario_file)),
               (scenario, "_compile", compiled),
               (scenario, "build_problem",
                timed("replay", scenario.build_problem, "compile")),
               (cli, "mirror_posteriors",
                timed("recognize", cli.mirror_posteriors, "fill")),
               (explainer, "optimal_plan",
                timed("plan", explainer.optimal_plan, "fill")),
               (json, "dumps", timed("encode", json.dumps))]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    try:
        started = perf_counter()
        code = cli.main([*VERB_ARGS[verb], "--scenario", str(path),
                         "--format", "structured", "--out", str(out)])
        seconds["request"] = perf_counter() - started
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
    if code != 0:
        raise SystemExit(f"{path} {verb}: exit {code}")
    return seconds


def request_stages(path, verb: str, out, runs: int = RUNS) -> dict:
    """Median seconds per stage, and of the request, over ``runs`` sends."""
    sends = [send_stages(path, verb, out) for _ in range(runs)]
    return {key: statistics.median(s[key] for s in sends) for key in sends[0]}


def pools(workdir: Path):
    """(pool, [(scenario path, verb)]) for each pool (module docstring);
    pool boards are written to ``workdir``."""
    groups = {}
    for workload, rung, path in boards(ROOT, workdir):
        groups.setdefault(POOLS[workload].format(rung), []).extend(
            (path, verb) for verb in WORKLOADS[workload].verbs)
    return groups.items()


def main() -> int:
    columns = (*STAGES, "other")
    print(f"{'pool':<15} {'requests':>8}  "
          + "  ".join(f"{c:>15}" for c in columns) + f"  {'request':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        out = workdir / "out.json"
        for pool, requests in pools(workdir):
            medians = [request_stages(path, verb, out)
                       for path, verb in requests]
            mean = {key: 1000 * statistics.fmean(m[key] for m in medians)
                    for key in (*STAGES, "request")}
            mean["other"] = mean["request"] - sum(mean[s] for s in STAGES)
            print(f"{pool:<15} {len(requests):>8}  " + "  ".join(
                f"{mean[c]:7.3f} ({100 * mean[c] / mean['request']:4.1f}%)"
                for c in columns) + f"  {mean['request']:8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
