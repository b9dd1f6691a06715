"""Run one workload in this process and write its result as JSON.

``run.py`` starts this once per workload, so ``ru_maxrss`` is the workload's
own peak.  The cycle is sent closed loop by one client through
``grexplain.cli.main`` in-process with ``--format structured --out FILE``;
``main`` is looked up on the module at each call so the traced run's wrapper
is the one that runs.  Output checks happen outside the timed calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gen
import model
from hostspeed import REFERENCE_S, probe
from workloads import VERB_ARGS, WORKLOADS, build, tail_pct

ROOT = Path(__file__).resolve().parent.parent
ORACLE_SAMPLE = 3
TOLERANCE = 1e-12


@dataclass
class Loop:
    """What a run of whole cycles sent and saw."""

    latencies: list = field(default_factory=list)
    probes: list = field(default_factory=list)  # host probe before each send, and after the last
    keys: list = field(default_factory=list)  # request key per send
    bad: set = field(default_factory=set)  # keys that failed at least once
    failed: int = 0
    cycles: int = 0
    elapsed: float = 0.0
    payloads: dict = field(default_factory=dict)  # first output per key


def send_cycles(cli, requests, out: Path, seconds=0.0, cycles=1,
                tracer=None) -> Loop:
    """Send whole cycles until ``seconds`` have passed and at least
    ``cycles`` are done."""
    loop = Loop(probes=[probe()])
    started = perf_counter()
    while loop.cycles < cycles or perf_counter() - started < seconds:
        for req in requests:
            argv = [*VERB_ARGS[req.verb], "--scenario", str(req.scenario),
                    "--format", "structured", "--out", str(out)]
            if tracer is not None:
                tracer.request, tracer.scenario = len(tracer.verb_of), str(req.scenario)
                tracer.cycle = loop.cycles
                tracer.verb_of[tracer.request] = req.verb
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed request
                code = repr(exc)
            loop.latencies.append(perf_counter() - t0)
            loop.probes.append(probe())
            loop.keys.append(req.key)
            data = out.read_bytes() if code == 0 else b""
            if not data or hashlib.sha256(data).hexdigest() != req.digest:
                loop.failed += 1
                loop.bad.add(req.key)
                print(f"FAILED {req.key}: exit {code}", file=sys.stderr)
            loop.payloads.setdefault(req.key, data)
        loop.cycles += 1
    loop.elapsed = perf_counter() - started
    return loop


def oracle_problems(req, payload: dict) -> list:
    """Differences between a payload and the benchmark's BFS oracle."""
    board = gen.read_board(req.scenario)
    orc = model.oracle(board)
    labels = board.labels()
    problems = []

    def close(a, b):
        return len(a) == len(b) and all(abs(x - y) <= TOLERANCE for x, y in zip(a, b))

    if req.verb == "recognize":
        if not close(payload["prior"], orc.prior):
            problems.append("prior")
        if len(payload["posteriors"]) != len(orc.posteriors) or not all(
                close(p, q) for p, q in zip(payload["posteriors"], orc.posteriors)):
            problems.append("posteriors")
        if payload["predicted"] != [labels[g] for g in orc.predicted]:
            problems.append("predicted")
        return problems

    expected = [(labels[g], labels[h], i, orc.actions[i - 1]) for g, h, i, _ in orc.entries]
    if req.verb == "rank":
        why, whynot = {}, {}
        for _, _, i, woe in orc.entries:
            why[i] = max(why.get(i, -math.inf), woe)
            whynot[i] = min(whynot.get(i, math.inf), woe)
        for scores, reverse, key in ((why, True, "why_ranks"),
                                     (whynot, False, "whynot_ranks")):
            rank_of = {v: r for r, v in enumerate(sorted(set(scores.values()),
                                                         reverse=reverse), 1)}
            ranks = {f"o{i}": rank_of[scores[i]] if i in scores else 0
                     for i in range(1, len(orc.posteriors) + 1)}
            if payload[key] != ranks:
                problems.append(key)
        return problems

    got = [(e["predicted"], e["counterfactual"], e["observation"], e["action"])
           for e in payload["entries"]]
    if got != expected or not close([e["woe"] for e in payload["entries"]],
                                    [e[3] for e in orc.entries]):
        problems.append("entries")
    if req.verb == "whynot":
        want = []
        for h in orc.counterfactual:
            group = [e for e in orc.entries if e[1] == h]
            if not group:
                status = "unsolvable" if h in orc.zero_pairs else "no-evidence"
                want.append((labels[h], status, None, None))
                continue
            worst = min(e[3] for e in group)
            obs = min(e[2] for e in group if e[3] == worst)
            state = orc.states[obs - 1]
            action = (None if board.satisfies(state, h)
                      else model.first_optimal_action(board, state, h))
            status = ("already-satisfied" if board.satisfies(state, h)
                      else "action" if action else "unsolvable")
            want.append((labels[h], status, obs, action))
        have = [(c["goal"], c["status"], c["observation"], c["counterfactual_action"])
                for c in payload["counterfactuals"]]
        if have != want:
            problems.append("counterfactuals")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="traced run: write spans here")
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import grexplain.cli as cli
    if Path(cli.__file__).resolve() != (src / "grexplain" / "cli.py").resolve():
        raise SystemExit(f"grexplain imported from {cli.__file__}, not {src}")

    workdir = Path(args.workdir)
    requests = build(args.workload, args.seed, ROOT, workdir)
    out = workdir / "out.json"
    send_cycles(cli, requests[:1], out, cycles=1)  # warm-up, not counted

    report = []
    if args.trace:
        from spans import Tracer

        plain = send_cycles(cli, requests, out, seconds=args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            loop = send_cycles(cli, requests, out, cycles=plain.cycles,
                               tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(len(loop.latencies))
        overhead = 100.0 * (loop.elapsed / plain.elapsed - 1.0)
        metrics["trace.overhead_pct"] = (overhead, "%")
        for verb, ms in sorted(tracer.verb_p50_ms().items()):
            report.append(f"cli.{verb}_p50_ms {ms:.3f} ms")
        report.append(f"traced {plain.cycles} cycle(s): {loop.elapsed:.2f} s traced, "
                      f"{plain.elapsed:.2f} s untraced, overhead {overhead:.1f}%")
        if args.spans:
            tracer.dump(args.spans)
            report.append(f"{len(tracer.spans)} spans written to {args.spans}")
        loop.failed += plain.failed
        loop.bad |= plain.bad
        loop.keys += plain.keys
    else:
        loop = send_cycles(cli, requests, out, seconds=args.seconds, cycles=2)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n = len(requests)
        # Latency at the reference host speed: scaled by the mean of the host
        # probes taken just before and just after the send.
        scaled = [t * 2 * REFERENCE_S / (before + after) for t, before, after
                  in zip(loop.latencies, loop.probes, loop.probes[1:])]
        cycles = [dict(zip(loop.keys[i:i + n], scaled[i:i + n]))
                  for i in range(0, len(loop.keys), n)]
        pct = tail_pct(n)
        # Each pair of consecutive cycles gives every request the faster of
        # its two sends; each metric is the median over the pairs, so the
        # estimate does not depend on how many cycles fitted in the run.
        per_pair = []
        for first, second in zip(cycles, cycles[1:]):
            best = [min(first[k], second[k]) for k in first]
            per_pair.append((statistics.median(best) * 1000.0,
                             statistics.quantiles(best, n=20, method="inclusive")
                             [pct // 5 - 1] * 1000.0,
                             n / sum(best)))
        p50, tail, rate = (statistics.median(v) for v in zip(*per_pair))
        metrics = {
            "request_p50_ms": (p50, "ms"),
            "request_tail_ms": (tail, "ms"),
            "requests_per_s": (rate, "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        report.append(f"latency per request is the faster of two sends in "
                      f"consecutive cycles; request_tail_ms is p{pct} over {n} "
                      f"requests; each metric is the median over "
                      f"{len(per_pair)} cycle pair(s)")
        report.append(f"{len(loop.keys)} sends in {loop.elapsed:.2f} s: "
                      f"{len(loop.keys) / loop.elapsed:.3f} sends/s wall clock; "
                      f"unscaled median send {statistics.median(loop.latencies) * 1000:.3f} ms; "
                      f"host probe median {statistics.median(loop.probes) * 1000:.3f} ms "
                      f"(reference {REFERENCE_S * 1000:.3f} ms)")
    attempted = len(loop.keys)

    # Independent oracle on a seeded sample of the cycle's requests.
    sample = random.Random(f"oracle:{args.workload}:{args.seed}").sample(
        requests, min(ORACLE_SAMPLE, len(requests)))
    for req in sample:
        if req.key in loop.bad:
            continue
        problems = oracle_problems(req, json.loads(loop.payloads[req.key]))
        if problems:
            print(f"ORACLE MISMATCH {req.key}: {problems}", file=sys.stderr)
            loop.bad.add(req.key)
            loop.failed += loop.keys.count(req.key)
    report.append(f"oracle checked {', '.join(r.key for r in sample)}")
    report.append(f"failed_ratio {loop.failed / attempted:.4f} ratio "
                  f"({loop.failed} of {attempted})")

    Path(args.result).write_text(json.dumps({
        "correct": loop.failed == 0, "attempted": attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
