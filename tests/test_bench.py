import importlib.util
import textwrap
from pathlib import Path

from grexplain import (answer_why_not, build_explanan, bundled_bench_paths,
                       bundled_scenario_path, mirror_posteriors)
from grexplain.bench import format_report, run_bench, time_scenario


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
    path = Path(__file__).resolve().parents[1] / "tools" / "gen_bench_suite.py"
    spec = importlib.util.spec_from_file_location("gen_bench_suite", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    generator.main(tmp_path)
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

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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
