"""grexplain benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
``src/`` directory, so nothing needs installing.  Each workload runs in its
own child process, one at a time, with one closed-loop client.  With
``--trace 0`` it prints ``setup_s`` (median time to import ``grexplain.cli``
in a fresh interpreter), ``request_p50_ms``, ``request_tail_ms``,
``requests_per_s`` and ``peak_rss_mb``, plus ``failed_ratio`` in the report
lines; with ``--trace 1`` the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
IMPORTS = 8  # import pairs timed for setup_s
DEADLINE_S = 170.0

IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                "t = time.perf_counter(); import grexplain.cli; "
                "t = time.perf_counter() - t; from hostspeed import probe; "
                "print(t, probe())")


def import_seconds(count: int) -> list:
    """Times to import ``grexplain.cli``, each in a fresh interpreter, at the
    reference host speed (scaled by a host probe taken right after it)."""
    times = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC),
                               str(HERE)], cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        seconds, host = map(float, done.stdout.split())
        times.append(seconds * REFERENCE_S / host)
    return times


def run_workload(name: str, args, workdir: Path, deadline: float) -> dict:
    result_file = workdir / "result.json"
    command = [sys.executable, str(HERE / "runner.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir),
               "--result", str(result_file)]
    if args.trace:
        command += ["--spans", str(OUT / f"{name}.spans.jsonl")]
    subprocess.run(command, cwd=ROOT, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    result = json.loads(result_file.read_text())
    result_file.unlink()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "grexplain" / "cli.py").is_file():
        print(f"error: no grexplain sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = OUT / f"work-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            metrics = {}
            if not args.trace:
                import_seconds(1)  # may compile bytecode; not counted
                before = import_seconds(IMPORTS)
            result = run_workload(name, args, workdir, deadline)
            if not args.trace:
                # The host's speed swings for seconds at a time, so each
                # set-up time is the faster of two imports taken on either
                # side of the workload, as request latencies are.
                pairs = zip(before, import_seconds(IMPORTS))
                metrics["setup_s"] = {"value": statistics.median(map(min, pairs)),
                                      "unit": "s"}
            metrics.update(result["metrics"])
            print(f"== {name} (seed {args.seed}, trace {args.trace})")
            for line in result["report"]:
                print(f"   {line}")
            for key, m in metrics.items():
                print(f"   {key} {m['value']:.6g} {m['unit']}")
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            if len(names) == 1:
                summary["metrics"] = metrics
            else:
                summary["metrics"].update(
                    {f"{name}.{k}": m for k, m in metrics.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
