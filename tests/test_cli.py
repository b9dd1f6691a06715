import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import grexplain
from grexplain import bundled_bench_paths, bundled_scenario_path
from grexplain.cli import main

NAV = str(bundled_scenario_path("nav_crossroads"))
PAIRS = str(bundled_scenario_path("sokoban_pairs"))
REFERENCE_DIGESTS = (Path(__file__).resolve().parents[1]
                     / "perfbench" / "pool" / "bundled_suite.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_recognize_text(capsys):
    code, out, _ = run(capsys, "recognize", "--scenario", NAV)
    assert code == 0
    assert "predicted: g2" in out
    assert "counterfactual: g1, g3" in out


def test_recognize_structured(capsys):
    code, out, _ = run(capsys, "recognize", "--scenario", NAV,
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted"] == ["g2"]
    assert len(payload["posteriors"]) == 8
    assert abs(sum(payload["posteriors"][3]) - 1.0) < 1e-9


def test_explain_why_text(capsys):
    code, out, _ = run(capsys, "explain", "--scenario", NAV,
                       "--question", "why")
    assert code == 0
    assert "Because the agent has moved up" in out
    assert "WoE" in out


def test_explain_whynot_contains_counterfactual_sentences(capsys):
    code, out, _ = run(capsys, "explain", "--scenario", NAV,
                       "--question", "whynot")
    assert code == 0
    assert ("Because the agent moved right from cell 23 to cell 24. "
            "It would have moved up from cell 23 to 14 "
            "if the goal was g1.") in out
    assert ("Because the agent moved up from cell 26 to cell 17. "
            "It would have moved right from cell 26 to 27 "
            "if the goal was g3.") in out


def test_explain_whynot_single_goal_filter(capsys):
    code, out, _ = run(capsys, "explain", "--scenario", NAV,
                       "--question", "whynot", "--goal", "g3")
    assert code == 0
    assert "if the goal was g3." in out
    assert "if the goal was g1." not in out


def test_explain_unknown_goal_label(capsys):
    code, _, err = run(capsys, "explain", "--scenario", NAV,
                       "--question", "why", "--goal", "g9")
    assert code == 2
    assert "unknown goal" in err


def test_explain_goal_in_wrong_question_side(capsys):
    code, _, err = run(capsys, "explain", "--scenario", NAV,
                       "--question", "why", "--goal", "g1")
    assert code == 2 and "not a predicted goal" in err
    code, _, err = run(capsys, "explain", "--scenario", NAV,
                       "--question", "whynot", "--goal", "g2")
    assert code == 2 and "not a counterfactual goal" in err


def test_explain_whynot_requires_counterfactual_goals(tmp_path, capsys):
    solo = tmp_path / "solo.yaml"
    solo.write_text("kind: grid\n"
                    "grid: {width: 3, height: 3, blocked: [], start: 1,"
                    " goals: [9]}\n"
                    "observations: [down]\n")
    code, _, err = run(capsys, "explain", "--scenario", str(solo),
                       "--question", "whynot")
    assert code == 2


def test_explain_whynot_reports_infeasible_goal(tmp_path, capsys):
    board = tmp_path / "walled.yaml"
    board.write_text("kind: grid\n"
                     "grid: {width: 3, height: 3, blocked: [6, 8], start: 1,"
                     " goals: [9, 3, 7]}\n"
                     "observations: [right]\n")
    code, out, _ = run(capsys, "explain", "--scenario", str(board),
                       "--question", "whynot", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    by_goal = {c["goal"]: c for c in payload["counterfactuals"]}
    assert by_goal["g1"]["status"] == "unsolvable"
    assert by_goal["g1"]["observation"] is None
    assert by_goal["g3"]["status"] == "action"


def test_explain_structured_has_full_precision_entries(capsys):
    code, out, _ = run(capsys, "explain", "--scenario", NAV,
                       "--question", "why", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 7
    woes = {round(e["woe"], 6) for e in payload["entries"]}
    assert len(woes) == 7  # stored at full precision, not rounded to 2 dp


def test_rank_table_sokoban_pairs(capsys):
    code, out, _ = run(capsys, "rank", "--scenario", PAIRS)
    assert code == 0
    lines = [l.split() for l in out.splitlines()[1:]]
    table = {row[0]: (int(row[1]), int(row[2])) for row in lines}
    assert table["o1"] == (0, 0)
    assert table["o8"][0] == 1
    assert table["o2"][0] == 7


def test_ascii_grid_format(capsys):
    code, out, _ = run(capsys, "explain", "--scenario", NAV,
                       "--question", "whynot", "--format", "ascii-grid")
    assert code == 0
    assert "legend:" in out
    assert "....1##2." in out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "answer.txt"
    code, out, _ = run(capsys, "explain", "--scenario", NAV,
                       "--question", "why", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "Because the agent has moved" in target.read_text()


def test_validation_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: grid\ngrid: {width: 3, height: 3, blocked: [],"
                   " start: 1, goals: [9]}\nobservations: [up]\n")
    code, _, err = run(capsys, "recognize", "--scenario", str(bad))
    assert code == 2 and "error:" in err


GRID_3X3 = ("kind: grid\ngrid: {width: 3, height: 3, blocked: [], start: 1,"
            " goals: [9, 3]}\n")


@pytest.mark.parametrize("scenario, extra, extra_file", [
    (GRID_3X3 + "observations: [right]\n",
     "--annotations", "why_ranks: {o1: x}\n"),
    ("kind: grid\ngrid: {width: abc, height: 3, blocked: [], start: 1,"
     " goals: [9]}\nobservations: []\n", None, None),
    ('kind: grid\nmap: ""\nobservations: []\n', None, None),
    (GRID_3X3 + "observations: [right]\n", "--priors", "g1: heavy\ng2: 1\n"),
    (GRID_3X3 + "observations: []\n", "--annotations", "why_ranks: {}\n"),
    (GRID_3X3 + "observations: [right]\n", "--budget=0", None),
    (GRID_3X3 + "observations: [right]\n", "--budget=-5", None),
    ("kind: strips\nstrips: {facts: [a, b], initial: [a], goals: [[b], [c]],"
     " actions: [{name: go, pre: [a], add: [b], del: [a]}]}\n"
     "observations: [go]\n", None, None),
], ids=["rank-not-int", "width-not-int", "empty-map", "prior-not-number",
        "eval-without-observations", "budget-zero", "budget-negative",
        "goal-fact-undeclared"])
def test_malformed_input_exits_2_without_traceback(tmp_path, scenario, extra,
                                                   extra_file):
    board = tmp_path / "board.yaml"
    board.write_text(scenario)
    verb = "eval" if extra == "--annotations" else "recognize"
    argv = [verb, "--scenario", str(board)]
    if extra_file is not None:
        side = tmp_path / "side.yaml"
        side.write_text(extra_file)
        argv += [extra, str(side)]
    elif extra:
        argv.append(extra)
    env = dict(os.environ,
               PYTHONPATH=str(Path(grexplain.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "grexplain.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_structured_output_matches_reference_digests(tmp_path):
    """Every bundled scenario under every answer verb reproduces the
    SHA-256 of its reference ``--format structured`` output."""
    reference = json.loads(REFERENCE_DIGESTS.read_text())
    verbs = {"recognize": ["recognize"],
             "why": ["explain", "--question", "why"],
             "whynot": ["explain", "--question", "whynot"],
             "rank": ["rank"]}
    paths = bundled_bench_paths() + [bundled_scenario_path("nav_crossroads"),
                                     bundled_scenario_path("sokoban_pairs")]
    assert sorted(p.stem for p in paths) == sorted(reference)
    out = tmp_path / "out.json"
    mismatched = []
    for path in paths:
        for verb, args in verbs.items():
            code = main([*args, "--scenario", str(path),
                         "--format", "structured", "--out", str(out)])
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            if code != 0 or digest != reference[path.stem][verb]:
                mismatched.append(f"{path.stem}/{verb}")
    assert mismatched == []


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "recognize", "--scenario", "/nope/missing.yaml")
    assert code == 2


def test_budget_exhaustion_exits_3(capsys):
    code, _, err = run(capsys, "recognize", "--scenario", PAIRS, "--budget", "5")
    assert code == 3
    assert "budget" in err


def test_priors_flag_changes_distribution(tmp_path, capsys):
    priors = tmp_path / "priors.yaml"
    priors.write_text("g1: 100\ng2: 1\ng3: 1\n")
    code, out, _ = run(capsys, "recognize", "--scenario", NAV,
                       "--format", "structured", "--priors", str(priors))
    assert code == 0
    payload = json.loads(out)
    assert payload["posteriors"][0][0] > 0.9  # heavy prior on g1 dominates


def test_bench_on_directory(tmp_path, capsys):
    for name in ("nav_crossroads", "sokoban_pairs"):
        src = bundled_scenario_path(name)
        (tmp_path / src.name).write_text(src.read_text())
    code, out, _ = run(capsys, "bench", "--scenario", str(tmp_path))
    assert code == 0
    assert "cf planning %" in out
    assert "grid (1)" in out and "sokoban (1)" in out


def test_eval_against_annotations(tmp_path, capsys):
    ann = tmp_path / "ann.yaml"
    ann.write_text(textwrap.dedent("""
        scenario: sokoban_pairs
        why_ranks: {o8: 1, o2: 7}
        whynot_ranks: {o1: 0}
        counterfactual_actions: {"(g3,g4)": push2-right-20-21}
    """))
    code, out, _ = run(capsys, "eval", "--scenario", PAIRS,
                       "--annotations", str(ann), "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["why_mae"] == 0.0
    assert payload["whynot_mae"] == 0.0
    assert "cf_agreement_pct" in payload


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
