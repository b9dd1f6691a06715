import json
import runpy
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

from grexplain import (answer_why_not, build_explanan, bundled_bench_paths,
                       bundled_scenario_path, load_scenario, mirror_posteriors)
from grexplain.bench import format_report, run_bench, time_scenario

ROOT = Path(__file__).resolve().parents[1]


def load_file(relative):
    """The globals of the file at ``relative`` under the checkout, run by
    path: the tools and the benchmark are not packages."""
    return types.SimpleNamespace(**runpy.run_path(str(ROOT / relative)))


def test_time_scenario_measures_all_three_phases(sokoban_problem):
    timing = time_scenario(sokoban_problem, name="pairs")
    assert timing.recognition_s > 0
    assert timing.explanation_s > 0
    assert 0 <= timing.counterfactual_s <= timing.explanation_s


def test_reports_have_bounded_counterfactual_share():
    reports = run_bench([bundled_scenario_path("nav_crossroads"),
                         bundled_scenario_path("sokoban_pairs")])
    assert {r.domain for r in reports} == {"grid", "sokoban"}
    for report in reports:
        assert 0 <= report.counterfactual_planning_pct <= 100
        assert report.explain_only <= report.total_with_explain
        assert report.time_increase_pct >= 0


def test_single_goal_scenario_spends_nothing_on_counterfactuals(tmp_path):
    (tmp_path / "solo.yaml").write_text(textwrap.dedent("""
        kind: grid
        grid: {width: 4, height: 4, blocked: [], start: 1, goals: [16]}
        observations: [down, down, right]
    """))
    reports = run_bench([tmp_path / "solo.yaml"])
    assert len(reports) == 1
    assert reports[0].counterfactual_planning_pct == 0.0


def test_failures_are_recorded_and_run_continues(tmp_path):
    (tmp_path / "broken.yaml").write_text("kind: grid\nobservations: []\n")
    src = bundled_scenario_path("nav_crossroads")
    (tmp_path / "ok.yaml").write_text(src.read_text())
    reports = run_bench(sorted(tmp_path.glob("*.yaml")))
    by_domain = {r.domain: r for r in reports}
    assert by_domain["grid"].scenario_count == 1
    assert any("broken.yaml" in f for r in reports for f in r.failures)


def test_why_not_answer_reports_its_planning_time(sokoban_problem):
    explanan = build_explanan(mirror_posteriors(sokoban_problem))
    answer = answer_why_not(sokoban_problem, explanan)
    assert answer.counterfactual_actions  # it planned at least one action
    assert answer.planning_s > 0


def test_format_report_table_shape():
    reports = run_bench(bundled_bench_paths()[:3])
    table = format_report(reports)
    header = table.splitlines()[0]
    for column in ("with explain", "explain only", "increase %", "cf planning %"):
        assert column in header


def test_generator_reproduces_bundled_suite_byte_for_byte(tmp_path):
    load_file("tools/gen_bench_suite.py").main(tmp_path)
    bundled = bundled_bench_paths()
    assert sorted(p.name for p in tmp_path.glob("*.yaml")) == [
        p.name for p in bundled]
    for path in bundled:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_traced_benchmark_installs_and_leaves_output_unchanged(tmp_path):
    """The traced benchmark run wraps library names by lookup; every name it
    wraps must still resolve, and a traced send must print the same bytes."""
    import importlib

    from grexplain import cli, strips

    spans = load_file("perfbench/spans.py")
    for name in spans.LAYERS:
        module, attr = name.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(module), attr)), name
    assert callable(strips.DomainDefinition.applicable_actions)

    argv = ["explain", "--question", "whynot", "--format", "structured",
            "--scenario", str(bundled_scenario_path("nav_crossroads"))]
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert cli.main([*argv, "--out", str(plain)]) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main([*argv, "--out", str(traced)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["optimal_plan"] > 0  # the wrappers saw the send
    assert traced.read_bytes() == plain.read_bytes()


TRACED_PROBE = textwrap.dedent("""\
    import json, sys
    src, perfbench, sends = sys.argv[1:]
    sys.path[:0] = [src, perfbench]
    import grexplain.cli
    for argv in json.loads(sends):
        assert grexplain.cli.main(argv) == 0, argv
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()""")


@pytest.mark.parametrize("workload", ["bundled_suite", "grid_ladder",
                                      "sokoban_deep"])
def test_traced_benchmark_installs_after_one_send_of_each_verb_and_kind(
        tmp_path, workload):
    """The traced run installs its wrappers after untimed sends, looking up
    every module of ``spans.LAYERS`` in ``sys.modules``; so after one
    request of each verb and scenario kind a workload sends, in a fresh
    interpreter, every one of those modules is loaded."""
    import yaml

    workloads = load_file("perfbench/workloads.py")
    assert workload in workloads.WORKLOADS
    sends = {}
    for request in workloads.build(workload, 1, ROOT, tmp_path):
        kind = yaml.safe_load(request.scenario.read_text())["kind"]
        sends.setdefault((request.verb, kind), [
            *workloads.VERB_ARGS[request.verb], "--scenario",
            str(request.scenario), "--format", "structured",
            "--out", str(tmp_path / "out.json")])
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PROBE, str(ROOT / "src"),
         str(ROOT / "perfbench"), json.dumps(list(sends.values()))],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_search_counts_counts_one_board():
    """``tools/search_counts.py`` on ``bench/sokoban_03``: every column of
    one board's row, read off that recognition (its sweep sizes are pinned
    by ``test_recognizer.test_certificates_skip_sweeps_on_sokoban_03``),
    and its why-not's one planning sweep.  On ``bench/grid_04`` the path
    reads ``tables`` and the grid plans its why-not, so no sweep runs."""
    tool = load_file("tools/search_counts.py")
    problem = load_scenario(bundled_scenario_path("bench/sokoban_03"))
    counts = tool.board_counts(problem)
    domain = problem.domain
    assert set(counts) == {"path", *tool.COLUMNS}
    assert counts["path"] == "sweeps"
    assert 0 < counts["obs_dequeues"] < counts["largest"] < counts["dequeues"]
    assert counts["rows"] == sum(row is not None for row in domain.rows)
    assert counts["states"] == len(domain.states)
    assert counts["plan_sweeps"] == 1
    assert len(tool.row("bundled", "bench/sokoban_03", counts).split()) == 10
    grid = tool.board_counts(load_scenario(
        bundled_scenario_path("bench/grid_04")))
    assert grid["path"] == "tables" and grid["obs_dequeues"] == 0
    assert grid["sweeps"] == grid["dequeues"] == grid["plan_sweeps"] == 0


def test_stage_times_times_one_board(tmp_path):
    """``tools/stage_times.py`` on ``bench/grid_01``: every stage, the
    observation replay and the counterfactual plans included, is timed
    inside the request, the output is written and the wrappers are gone
    afterwards; the pools are the bundled suite, the four rungs and
    ``sokoban_deep``."""
    import json

    from grexplain import cli, explainer, scenario

    tool = load_file("tools/stage_times.py")

    def wrapped():
        return (scenario.parse_scenario_file, scenario._compile,
                scenario.build_problem, cli.mirror_posteriors,
                explainer.optimal_plan, json.dumps)

    originals = wrapped()
    out = tmp_path / "out.json"
    stages = tool.request_stages(bundled_scenario_path("bench/grid_01"),
                                 "whynot", out, runs=1)
    assert set(stages) == {*tool.STAGES, "request"}
    assert {"replay", "plan"} <= set(tool.STAGES)
    assert all(stages[stage] > 0 for stage in tool.STAGES)
    assert sum(stages[stage] for stage in tool.STAGES) < stages["request"]
    assert out.read_text().startswith("{\n")
    assert wrapped() == originals
    assert [pool for pool, _ in tool.pools(tmp_path)] == [
        "bundled", *(f"grid_ladder {rung}" for rung in "ABCD"),
        "sokoban_deep"]


def test_ab_cli_sends_the_benchmark_requests(tmp_path):
    """``tools/ab_cli.py`` sends the benchmark's request sets: every bundled
    scenario with each of the four benchmark verbs, and every board of each
    generated pool with its workload's verbs, each verb with the
    benchmark's arguments."""
    ab_cli = load_file("tools/ab_cli.py")
    workloads = load_file("perfbench/workloads.py")
    verb_args = workloads.VERB_ARGS
    bundled = workloads.WORKLOADS["bundled_suite"].verbs
    assert set(bundled) == set(verb_args) == {"recognize", "why", "whynot",
                                              "rank"}
    expected = set()
    for path in (ROOT / "src" / "grexplain" / "scenarios").rglob("*.yaml"):
        for verb in bundled:
            expected.add(("bundled_suite",
                          (*verb_args[verb], "--scenario", str(path))))
    boards = {}
    for name in ("grid_ladder", "sokoban_deep"):
        verbs = workloads.WORKLOADS[name].verbs
        for entries in workloads.load_pool(name).values():
            for entry in entries:
                path = tmp_path / f"{entry['name']}.yaml"
                boards[path] = entry["scenario"]
                for verb in verbs:
                    expected.add((name, (*verb_args[verb], "--scenario",
                                         str(path))))

    sent = ab_cli.requests(ROOT, tmp_path)
    assert len({key for _, key, _ in sent}) == len(sent) == len(expected)
    assert {(name, tuple(argv)) for name, _, argv in sent} == expected
    for path, scenario in boards.items():
        assert path.read_text() == scenario


def test_ab_cli_gain_rule_needs_nine_wins_in_ten_and_a_gap_past_the_spread():
    gain_rule = load_file("tools/ab_cli.py").gain_rule
    parent = [10.0, 10.4, 9.6, 10.2, 9.8, 10.0, 10.6, 9.4, 10.1, 9.9]
    rule = gain_rule(parent, [p - 1 for p in parent])
    assert rule["wins"] == 10 and rule["met"]
    assert rule["parent"] == (9.75, 10.0, 10.25)
    assert rule["change"] == (8.75, 9.0, 9.25)
    # a gap inside the parent's interquartile range of 0.5
    assert not gain_rule(parent, [p - 0.4 for p in parent])["met"]
    # nine wins and a tie, then eight wins and two ties
    assert gain_rule(parent, [p - 1 for p in parent[:9]] + parent[9:])["met"]
    eight = gain_rule(parent, [p - 1 for p in parent[:8]] + parent[8:])
    assert eight["wins"] == 8 and not eight["met"]
    # one round is all three of its quartiles: a spread of zero
    assert gain_rule([10.0], [9.0]) == {"parent": (10.0,) * 3,
                                         "change": (9.0,) * 3,
                                         "wins": 1, "met": True}


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_ab_cli_rejects_fewer_than_one_round_before_copying(tmp_path, rounds):
    """A round count below 1 exits 2 with a usage error before either tree
    is read: the trees named here do not exist."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_cli.py"),
         "--parent", str(tmp_path / "parent"),
         "--change", str(tmp_path / "change"), "--rounds", rounds],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.endswith(
        f"error: --rounds must be at least 1, got {rounds}\n")


def test_ab_cli_times_setup_from_source_without_writing_bytecode(tmp_path):
    """The ``setup`` row imports from a copy of ``src/`` with no
    ``__pycache__`` and leaves none behind, so every import compiles
    grexplain from source as a fresh checkout does."""
    ab_cli = load_file("tools/ab_cli.py")
    src = ab_cli.source_copy(ROOT, tmp_path / "src")
    assert (src / "grexplain" / "cli.py").is_file()
    assert not list(src.rglob("__pycache__"))
    assert ab_cli.import_ms(src, 1) > 0
    assert not list(src.rglob("__pycache__"))


def test_ab_cli_times_startup_requests_from_source_without_writing_bytecode(
        tmp_path):
    """Each start-up row imports from the bytecode-free copy of ``src/``,
    leaves no ``__pycache__`` and writes the request's structured output;
    the rows cover every scenario kind and verb the workloads send."""
    ab_cli = load_file("tools/ab_cli.py")
    workloads = load_file("perfbench/workloads.py")
    verbs = {verb for w in workloads.WORKLOADS.values() for verb in w.verbs}
    assert set(ab_cli.STARTUP) == {f"{kind}/{verb}" for kind in
                                   ("grid", "sokoban") for verb in verbs}
    src = ab_cli.source_copy(ROOT, tmp_path / "src")
    out = tmp_path / "out.json"
    argv = ab_cli.startup_argv(src, "sokoban/whynot", out)
    assert argv[:3] == ["explain", "--question", "whynot"]
    assert ab_cli.import_ms(src, 1, argv) > 0
    assert not list(src.rglob("__pycache__"))
    expected = tmp_path / "expected.json"
    from grexplain.cli import main
    assert main([*argv[:-1], str(expected)]) == 0
    assert out.read_bytes() == expected.read_bytes()
