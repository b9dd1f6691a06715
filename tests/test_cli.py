import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import grexplain
from grexplain import bundled_bench_paths, bundled_scenario_path
from grexplain.cli import build_parser, main
from grexplain.scenario import build_problem, parse_scenario

NAV = str(bundled_scenario_path("nav_crossroads"))
PAIRS = str(bundled_scenario_path("sokoban_pairs"))
ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIGESTS = ROOT / "perfbench" / "pool" / "bundled_suite.json"
CLI_GOLDENS = json.loads(
    Path(__file__).with_name("cli_goldens.json").read_text())


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


@pytest.mark.parametrize("argv", [
    ["bench", "--scenario", NAV, "--priors", "/nonexistent.yaml"],
    ["bench", "--scenario", NAV, "--format", "ascii-grid"],
    ["eval", "--scenario", NAV, "--annotations", "NOTES",
     "--format", "ascii-grid"],
], ids=["bench-priors", "bench-ascii-grid", "eval-ascii-grid"])
def test_verbs_reject_options_they_do_not_read(tmp_path, capsys, argv):
    notes = tmp_path / "notes.yaml"
    notes.write_text("why_ranks: {o1: 0}\n")
    with pytest.raises(SystemExit) as exc:
        main([str(notes) if arg == "NOTES" else arg for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err


def test_readme_cli_lines_parse():
    """Every ``grexplain`` line of the README's CLI block names only options
    its verb takes (parsing opens no file)."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines()
             if line.startswith("grexplain ")]
    assert len(lines) >= 5
    for line in lines:
        argv = shlex.split(line)[1:]
        assert callable(build_parser().parse_args(argv).fn), line


def test_readme_yaml_blocks_load(tmp_path):
    """Every ``yaml`` block of the README loads: a scenario parses and
    compiles, and the annotation block runs through ``eval`` against the
    bundled scenario it names."""
    readme = (ROOT / "README.md").read_text()
    blocks = [yaml.safe_load(part.split("```", 1)[0])
              for part in readme.split("```yaml\n")[1:]]
    scenarios = [data for data in blocks if "kind" in data]
    annotations = [data for data in blocks if "kind" not in data]
    assert len(scenarios) >= 3 and len(annotations) == 1
    for data in scenarios:
        build_problem(parse_scenario(data))
    notes = tmp_path / "notes.yaml"
    notes.write_text(yaml.safe_dump(annotations[0]))
    code = main(["eval", "--scenario",
                 str(bundled_scenario_path(annotations[0]["scenario"])),
                 "--annotations", str(notes),
                 "--out", str(tmp_path / "out.txt")])
    assert code == 0


def test_ascii_grid_format(capsys):
    code, out, _ = run(capsys, "explain", "--scenario", NAV,
                       "--question", "whynot", "--format", "ascii-grid")
    assert code == 0
    assert "legend:" in out
    assert "....1##2." in out


ANSWER_VERBS = [["recognize"], ["explain", "--question", "why"],
                ["explain", "--question", "whynot"], ["rank"]]


def test_ascii_grid_refuses_more_labelled_cells_than_labels(tmp_path, capsys):
    # 38 goal cells: labels past the 35th would repeat 1, 2, 3, a, b, c.
    path = tmp_path / "goals38.yaml"
    path.write_text("kind: grid\nmap: |\n  @123456789abcdefghij\n"
                    "  klmnopqrstuvwxyzABC.\nobservations: [down]\n")
    for verb in ANSWER_VERBS:
        code, out, err = run(capsys, *verb, "--scenario", str(path),
                             "--format", "ascii-grid")
        assert code == 2 and out == ""
        assert err == ("error: ascii-grid: the board has 38 goal cells, "
                       "more than the 35 map labels (1-9, then a-z)\n")
        for fmt in ("text", "structured"):
            code, _, err = run(capsys, *verb, "--scenario", str(path),
                               "--format", fmt)
            assert code == 0 and err == ""


def test_ascii_grid_draws_35_labelled_cells_with_distinct_labels(
        tmp_path, capsys):
    labels = "123456789abcdefghijklmnopqrstuvwxyz"
    path = tmp_path / "goals35.yaml"
    path.write_text(f"kind: grid\nmap: |\n  @{labels[:17]}\n  {labels[17:]}\n"
                    "observations: [down]\n")
    code, out, _ = run(capsys, "recognize", "--scenario", str(path),
                       "--format", "ascii-grid")
    assert code == 0
    rows = out.splitlines()
    assert rows[:2] == [f"@{labels[:17]}", labels[17:]]
    assert len(set(rows[0][1:] + rows[1])) == 35


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "answer.txt"
    code, out, _ = run(capsys, "explain", "--scenario", NAV,
                       "--question", "why", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "Because the agent has moved" in target.read_text()


def test_out_to_a_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(capsys, "recognize", "--scenario", NAV,
                             "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: --out {target}: ")


def test_null_names_fall_back_to_the_stem_and_the_problem(tmp_path, capsys):
    board = tmp_path / "board.yaml"
    board.write_text("name: null\n" + GRID_3X3 + "observations: [right]\n")
    code, out, _ = run(capsys, "recognize", "--scenario", str(board),
                       "--format", "structured")
    assert code == 0 and json.loads(out)["scenario"] == "board"
    notes = tmp_path / "notes.yaml"
    notes.write_text("scenario: null\nwhy_ranks: {o1: 1}\n")
    code, out, _ = run(capsys, "eval", "--scenario", NAV, "--annotations",
                       str(notes), "--format", "structured")
    assert code == 0 and json.loads(out)["scenario"] == "nav_crossroads"


def test_validation_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: grid\ngrid: {width: 3, height: 3, blocked: [],"
                   " start: 1, goals: [9]}\nobservations: [up]\n")
    code, _, err = run(capsys, "recognize", "--scenario", str(bad))
    assert code == 2 and "error:" in err


def test_goals_that_held_initially_exit_2_saying_so(tmp_path, capsys):
    """g1 holds in the initial state, so its base cost of 0 scores 0 after
    ``right`` although it is one step away: the exit-2 message says that
    rather than calling it unreachable."""
    board = tmp_path / "board.yaml"
    board.write_text("kind: grid\ngrid: {width: 3, height: 1, start: 1, "
                     "goals: [1]}\nobservations: [right]\n")
    assert run(capsys, "recognize", "--scenario", str(board)) == (
        2, "", "error: every goal hypothesis reachable after observation 1 "
        "(g1) held in the initial state, so each scores 0\n")
    board.write_text("kind: grid\ngrid: {width: 3, height: 1, blocked: [2], "
                     "start: 1, goals: [3]}\nobservations: []\n")
    assert run(capsys, "recognize", "--scenario", str(board)) == (
        2, "", "error: no goal hypothesis is reachable after observation 0\n")


GRID_3X3 = ("kind: grid\ngrid: {width: 3, height: 3, blocked: [], start: 1,"
            " goals: [9, 3]}\n")


def test_no_evidence_says_there_is_no_answer(tmp_path, capsys):
    """After ``right`` both goals tie, so no observation carries evidence:
    why, why-not and eval's counterfactual agreement say there is no answer."""
    board = tmp_path / "board.yaml"
    board.write_text(GRID_3X3 + "observations: [right]\n")
    notes = tmp_path / "notes.yaml"
    notes.write_text("counterfactual_actions: {g1: move-down-1-4}\n")
    for args, question in ((["explain", "--question", "why"], "why"),
                           (["explain", "--question", "whynot"], "why-not"),
                           (["eval", "--annotations", str(notes)], "why-not")):
        code, _, err = run(capsys, *args, "--scenario", str(board))
        assert code == 2
        assert err == ("error: no observation weighs a predicted goal against "
                       "a counterfactual goal, so there is no "
                       f"{question} answer\n")


# 9 x 3, agent on cell 12: ``move-up-12-3`` is legal, cell 11 is blocked.
GRID_9X3 = ("kind: grid\ngrid: {width: 9, height: 3, blocked: [11], start: 12,"
            " goals: [1, 27]}\n")


@pytest.mark.parametrize("name", [
    "move-up-012-3", "move-up-+12-3", "move-up-1_2-3", "move-up- 12-3",
    "move-down-21-30", "move-left-10-9", "move-left-12-11", "move-down-12-3",
])
def test_board_action_names_are_known_only_as_compiled(tmp_path, capsys,
                                                       name):
    """A name whose numbers parse to a legal move but are spelled otherwise
    than the compiler spells them, a move off the board, one into a blocked
    cell and one whose direction does not fit its cells are unknown, both
    as an observation token and as an annotated counterfactual action."""
    board, notes = tmp_path / "board.yaml", tmp_path / "notes.yaml"
    board.write_text(GRID_9X3 + f"observations: ['{name}']\n")
    assert run(capsys, "recognize", "--scenario", str(board)) == (
        2, "", f"error: observation 1: unknown action {name!r}\n")
    board.write_text(GRID_9X3 + "observations: [right]\n")
    notes.write_text(f"counterfactual_actions: {{g1: '{name}'}}\n")
    assert run(capsys, "eval", "--scenario", str(board), "--annotations",
               str(notes)) == (
        2, "", f"error: annotation names unknown action {name!r}\n")


def test_a_name_read_once_keeps_the_exact_spelling_rule(tmp_path, capsys):
    """Reading ``move-up-12-3`` caches its value; ``move-up-012-3`` is still
    unknown to ``has_action`` and ``action``, and as an observation after
    the move it spells differently."""
    problem = build_problem(parse_scenario(yaml.safe_load(
        Path(NAV).read_text())))
    domain = problem.domain
    assert domain.action("move-up-12-3").name == "move-up-12-3"
    assert domain.has_action("move-up-12-3")
    assert not domain.has_action("move-up-012-3")
    with pytest.raises(grexplain.MalformedSpec,
                       match="unknown action: move-up-012-3"):
        domain.action("move-up-012-3")
    board = tmp_path / "board.yaml"
    board.write_text(Path(NAV).read_text().replace(
        "observations: [right, right, right, right, right, right, up, up]",
        "observations: [move-up-20-11, right, move-up-12-3, down, "
        "move-up-012-3]"))
    assert run(capsys, "recognize", "--scenario", str(board)) == (
        2, "", "error: observation 5: unknown action 'move-up-012-3'\n")


def test_a_priors_key_that_is_not_a_string_exits_2_naming_it(tmp_path,
                                                             capsys):
    """YAML reads ``1: 2`` as an int key, which names no goal even where a
    goal is named "1"; the message names the key's type, as for an
    annotation key, rather than list "1" as both unknown and a choice."""
    board, priors = tmp_path / "board.yaml", tmp_path / "priors.yaml"
    board.write_text(GRID_3X3 + "goal_names: ['1', '2']\n"
                     "observations: [right]\n")
    priors.write_text("1: 2\n")
    assert run(capsys, "recognize", "--scenario", str(board),
               "--priors", str(priors)) == (
        2, "", "error: priors: expected a string, got 1\n")


@pytest.mark.parametrize("notes, message", [
    ("why_ranks: {o1: 0, 1: 5, o01: 2}",
     "why_ranks: keys 'o1' and 1 both name observation 1"),
    ("why_ranks: {o01: 2, o1: 0}",
     "why_ranks: keys 'o01' and 'o1' both name observation 1"),
    ("whynot_ranks: {o2: 1, o1: 0, 2: 1}",
     "whynot_ranks: keys 'o2' and 2 both name observation 2"),
])
def test_eval_rejects_two_keys_for_one_observation(tmp_path, capsys, notes,
                                                    message):
    """``o1``, ``1`` and ``o01`` all name observation 1: a second one exits
    2 naming both keys, rather than silently replacing the first rank."""
    board = tmp_path / "board.yaml"
    board.write_text(GRID_3X3 + "observations: [right, down]\n")
    annotations = tmp_path / "notes.yaml"
    annotations.write_text(notes + "\n")
    code, out, err = run(capsys, "eval", "--scenario", str(board),
                         "--annotations", str(annotations))
    assert (code, out, err) == (2, "", f"error: {message}\n")


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
    ("kind: strips\nstrips: {facts: [a, b], initial: [a, zzz], goals: [[b]],"
     " actions: [{name: go, pre: [a], add: [b], del: [a]}]}\n"
     "observations: [go]\n", None, None),
    (GRID_3X3 + "goal_names: 5\nobservations: [right]\n", None, None),
    ("kind: strips\nstrips: {facts: null, initial: [a], goals: [[b]],"
     " actions: [{name: go, pre: [a], add: [b], del: [a]}]}\n"
     "observations: [go]\n", None, None),
    ("kind: strips\nstrips: {facts: [a, b], initial: [a], goals: [[b]],"
     " actions: 5}\nobservations: []\n", None, None),
    ("kind: strips\nstrips: {facts: [a, b], initial: [a], goals: [[b]],"
     " actions: [{name: go, pre: 5, add: [b], del: [a]}]}\n"
     "observations: [go]\n", None, None),
    ("kind: strips\nstrips: {facts: [1, 2], initial: [1], goals: [[2]],"
     " actions: [{name: go, pre: [1], add: [2], del: [1]}]}\n"
     "observations: [go]\n", None, None),
    ("kind: sokoban\nsokoban: {width: 5, height: 1, walls: [], player: 1,"
     " boxes: [2, 3], storage: [4, 5], multi_push: 'false', goals: [[4, 5]]}\n"
     "observations: [right]\n", None, None),
    (GRID_3X3 + "goal_names: [a, a]\nobservations: [right]\n", None, None),
    ("kind: grid\ngrid: {width: 3.9, height: 3, blocked: [], start: 1,"
     " goals: [9]}\nobservations: []\n", None, None),
    ("kind: grid\ngrid: {width: 3, height: 3, blocked: [], start: true,"
     " goals: [9]}\nobservations: []\n", None, None),
    (GRID_3X3 + "observations: [right]\n",
     "--annotations", "why_ranks: {o1: 1.7}\n"),
    (GRID_3X3 + "observations: [right]\n",
     "--annotations", "why_ranks: [1, 2]\n"),
    (GRID_3X3 + "observations: [right]\n",
     "--annotations", "counterfactual_actions: 5\n"),
    (GRID_3X3 + "observations: [right]\n", "--priors", "g1: true\ng2: 1\n"),
    (GRID_3X3 + "observations: [right]\n", "--priors",
     "g1: 1e308\ng2: 1e308\n"),
    (GRID_3X3 + "observations: [right]\n", "--priors",
     f"g1: 1{'0' * 400}\ng2: 1\n"),
    (GRID_3X3 + "observations: [right]\n", "--priors",
     "g1: 5.0e-324\ng2: 1.0e+300\n"),
    (GRID_3X3 + "observations: [right]\n", "--priors", "g1: [\n"),
    (Path(NAV).read_text(), "--annotations",
     "counterfactual_actions: {nosuchgoal: move-up-23-14}\n"),
    ("kind: sokoban\nmap: |\n  .$$12\nsokoban: {goals: [[4, 5]]}\n"
     "observations: []\n", None, None),
    ("kind: sokoban\nmap: |\n  @$$12\nsokoban: 5\nobservations: []\n",
     None, None),
    ("kind: grid\nmap: |\n  @.1\n  #.1\n  .@2\nobservations: []\n",
     None, None),
    ("kind: grid\nmap: |\n  @$1\n  ..2\nobservations: [right]\n",
     None, None),
    ("kind: grid\ngrid: 5\nobservations: []\n", None, None),
    ("kind: sokoban\nsokoban: 5\nobservations: []\n", None, None),
    ("kind: strips\nstrips: 5\nobservations: []\n", None, None),
    (Path(NAV).read_text(), "--priors", "g1: 1\ng2: 1\ng3: 1\ngX: 5\n"),
    ("name: 5\n" + GRID_3X3 + "observations: []\n", None, None),
    (GRID_3X3 + "observations: [right]\n", "--annotations", "scenario: [x]\n"),
    ("kind: strips\nstrips: {facts: [a, b], initial: [a], goals: [[b]],"
     " actions: [{name: null, pre: [a], add: [b], del: [a]}]}\n"
     "observations: [None]\n", None, None),
    ("kind: strips\nstrips: {facts: [a, b], initial: [a], goals: [[b]],"
     " actions: [{name: 5, pre: [a], add: [b], del: [a]}]}\n"
     "observations: ['5']\n", None, None),
    (Path(NAV).read_text(), "--annotations",
     "counterfactual_actions: {g1: null}\n"),
    (Path(NAV).read_text(), "--annotations",
     "counterfactual_actions: {null: move-up-23-14}\n"),
    ("kind: strips\nstrips: {facts: [a, b, c], initial: [a],"
     " goals: [[b], [c]], actions: [{name: go, pre: [a], add: [b], del: [a]}]}\n"
     "goal_names: [g1]\nobservations: [go]\n", None, None),
    (b"kind: grid\nname: \xff\xfe\n", None, None),
    (GRID_3X3 + "observations: [right]\n", "--priors", b"g1: \xff\ng2: 1\n"),
    ("kind: grid\ngrid: {width: 1000000, height: 1000000, start: 1,"
     " goals: [2]}\nobservations: []\n", None, None),
    (GRID_3X3 + "observations: false\n", None, None),
    (GRID_3X3 + 'observations: ""\n', None, None),
    (GRID_3X3 + "goal_names: 0\nobservations: [right]\n", None, None),
    ("kind: strips\nstrips: {facts: [a, b], initial: [a], goals: [[b]],"
     " actions: [{name: go, pre: false, add: [b], del: [a]}]}\n"
     "observations: [go]\n", None, None),
    (GRID_3X3 + "observations: [right]\n",
     "--annotations", "why_ranks: {o0_1: 1}\n"),
    (GRID_3X3 + "observations: [right]\n",
     "--annotations", "why_ranks: {'o 1': 1}\n"),
], ids=["rank-not-int", "width-not-int", "empty-map", "prior-not-number",
        "eval-without-observations", "budget-zero", "budget-negative",
        "goal-fact-undeclared", "initial-fact-undeclared",
        "goal-names-not-a-list", "facts-null", "actions-not-a-list",
        "pre-not-a-list", "fact-names-not-strings", "multi-push-quoted",
        "goal-names-repeated", "width-float", "start-bool", "rank-float",
        "ranks-not-a-mapping", "cf-actions-not-a-mapping", "prior-bool",
        "priors-overflow", "prior-past-float-range", "prior-underflows",
        "priors-invalid-yaml", "cf-actions-unknown-goal",
        "sokoban-map-no-start", "sokoban-map-body-not-a-mapping",
        "grid-map-repeats-symbols", "grid-map-box",
        "grid-body-not-a-mapping", "sokoban-body-not-a-mapping",
        "strips-body-not-a-mapping", "priors-unknown-goal",
        "name-not-a-string", "annotation-scenario-not-a-string",
        "action-name-null", "action-name-not-a-string", "cf-action-null",
        "cf-goal-null", "goal-names-fewer-than-goals", "scenario-not-utf8",
        "priors-not-utf8", "grid-too-large", "observations-false",
        "observations-empty-string", "goal-names-zero", "pre-false",
        "rank-key-underscore", "rank-key-space"])
def test_malformed_input_exits_2_without_traceback(tmp_path, scenario, extra,
                                                   extra_file):
    def write(path, content):  # bytes are written as they are
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)

    board = tmp_path / "board.yaml"
    write(board, scenario)
    verb = "eval" if extra == "--annotations" else "recognize"
    argv = [verb, "--scenario", str(board)]
    if extra_file is not None:
        side = tmp_path / "side.yaml"
        write(side, extra_file)
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
    if extra == "--priors":
        assert proc.stderr.startswith("error: priors")


DEEP = "[" * 1000 + "]" * 1000


@pytest.mark.parametrize("scenario, priors", [
    (GRID_3X3 + f"observations: {DEEP}\n", None),
    (f"kind: {DEEP}\n", None),
    (GRID_3X3 + "observations: []\n", f"g1: {DEEP}\ng2: 1\n"),
], ids=["observations", "kind", "prior-weight"])
def test_deeply_nested_values_exit_2_with_a_short_message(tmp_path, capsys,
                                                          scenario, priors):
    """A message quotes a value nested a thousand deep in a few characters
    rather than raising RecursionError."""
    board, side = tmp_path / "board.yaml", tmp_path / "priors.yaml"
    board.write_text(scenario)
    argv = ["recognize", "--scenario", str(board)]
    if priors is not None:
        side.write_text(priors)
        argv += ["--priors", str(side)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 100


def test_an_ascii_locale_gets_utf8_files_and_an_error_on_stdout(tmp_path):
    """Under the C locale, text stdout cannot encode a goal named café: it
    exits 2 with an error naming ``--out``, which writes UTF-8."""
    board, answer = tmp_path / "board.yaml", tmp_path / "answer.txt"
    board.write_text(GRID_3X3 + "goal_names: [caf\u00e9, b]\n"
                     "observations: [right]\n", encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(grexplain.__file__).resolve().parents[1]))
    env.pop("PYTHONIOENCODING", None)
    argv = [sys.executable, "-m", "grexplain.cli", "recognize",
            "--scenario", str(board)]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: ") and b"--out" in proc.stderr
    proc = subprocess.run([*argv, "--out", str(answer)], capture_output=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert "predicted: caf\u00e9" in answer.read_bytes().decode("utf-8")


def test_a_reader_that_closes_early_gets_exit_1_and_no_traceback():
    """The read end of stdout's pipe is closed before the first write."""
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ,
               PYTHONPATH=str(Path(grexplain.__file__).resolve().parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "grexplain.cli", "recognize", "--scenario",
             NAV, "--format", "structured"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def loaded_by(*steps):
    """The modules each of ``steps``, Python source run in turn in one fresh
    interpreter, adds to ``sys.modules``."""
    probe = textwrap.dedent("""\
        import json, sys
        found = []
        for step in json.loads(sys.argv[1]):
            before = set(sys.modules)
            exec(step)
            found.append(sorted(set(sys.modules) - before))
        print(json.dumps(found))""")
    env = dict(os.environ,
               PYTHONPATH=str(Path(grexplain.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(steps)],
                          capture_output=True, text=True, env=env, timeout=60,
                          check=True)
    return [set(names) for names in json.loads(proc.stdout)]


def test_importing_the_cli_loads_neither_dataclasses_nor_bench():
    """Every call pays for what ``import grexplain.cli`` loads: the records
    are named tuples, so ``dataclasses`` (and with it ``inspect``) stays
    out, and ``bench`` with ``statistics`` loads only for the bench verb
    (``test_bench_on_directory`` runs that verb).  Importing ``bench`` then
    adds ``statistics`` but still neither ``dataclasses`` nor ``inspect``."""
    by_cli, by_bench = loaded_by("import grexplain.cli",
                                 "import grexplain.bench")
    assert "grexplain.cli" in by_cli
    assert not by_cli & {"dataclasses", "inspect", "statistics",
                         "grexplain.bench"}
    assert "grexplain.bench" in by_bench
    assert not by_bench & {"dataclasses", "inspect"}


DEFERRED = {"grexplain.explainer", "grexplain.render", "grexplain.metrics",
            "grexplain.bench"}


def test_each_verb_loads_only_the_modules_it_runs(tmp_path):
    """``import grexplain.cli`` and a grid ``recognize`` load none of the
    explainer, the renderer, the metrics or ``bench``; a why-not answer
    loads the explainer and the renderer but not the metrics."""
    out = str(tmp_path / "out.json")

    def send(*argv):
        return (f"from grexplain.cli import main; "
                f"assert main({[*argv, '--out', out]!r}) == 0")

    by_cli, by_recognize, by_whynot = loaded_by(
        "import grexplain.cli",
        send("recognize", "--scenario", NAV, "--format", "structured"),
        send("explain", "--question", "whynot", "--scenario", NAV,
             "--format", "structured"))
    assert "grexplain.cli" in by_cli
    assert not (by_cli | by_recognize) & DEFERRED
    assert by_whynot & DEFERRED == {"grexplain.explainer", "grexplain.render"}


def test_the_package_root_loads_each_public_name_from_its_home_module():
    """``from grexplain import X`` gives the object X's home module defines,
    ``render`` stays the function after its module loads, an unknown name
    is an AttributeError and ``dir`` lists every public name."""
    import importlib

    import grexplain.render  # noqa: F401  (binds no module over the name)

    for name in grexplain.__all__:
        home = importlib.import_module(f"grexplain.{grexplain._HOME[name]}")
        assert getattr(grexplain, name) is getattr(home, name), name
    assert grexplain.render is sys.modules["grexplain.render"].render
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        grexplain.nope  # noqa: B018
    assert set(grexplain.__all__) <= set(dir(grexplain))


@st.composite
def strips_listings(draw):
    """A small raw-STRIPS scenario whose initial state, goals and
    observations may name facts or actions the listing does not declare.
    The observations are a random walk from the initial state, sometimes
    followed by an undeclared or inapplicable token."""
    declared = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                             unique=True))
    used = st.frozensets(st.sampled_from(declared))
    named = st.one_of(used, st.frozensets(st.sampled_from(["a", "b", "c",
                                                            "zzz"])))
    actions = []
    for name in draw(st.lists(st.sampled_from(["go", "back", "b-go", "a-go"]),
                              unique=True)):
        add = draw(used)
        actions.append((name, draw(used), add, draw(used) - add))
    initial = draw(named)
    state, walk = initial, []
    for _ in range(draw(st.integers(0, 4))):
        moves = [a for a in actions if a[1] <= state]
        if not moves:
            break
        name, _, add, dele = draw(st.sampled_from(moves))
        state, walk = (state - dele) | add, [*walk, name]
    walk += draw(st.lists(st.sampled_from(["go", "fly", "up"]), max_size=1))
    return {
        "kind": "strips",
        "strips": {"facts": declared,
                   "actions": [{"name": n, "pre": sorted(p), "add": sorted(a),
                                "del": sorted(d)} for n, p, a, d in actions],
                   "initial": sorted(initial),
                   "goals": [sorted(g) for g in draw(
                       st.lists(named, min_size=1, max_size=3))]},
        "observations": walk,
    }


@settings(max_examples=60, deadline=None)
@given(strips_listings())
@example({"kind": "strips",
          "strips": {"facts": ["a", "b", "c"],
                     "actions": [{"name": "a-go", "pre": ["a"], "add": ["b"],
                                  "del": ["a"]},
                                 {"name": "b-go", "pre": ["a"], "add": ["c"],
                                  "del": ["a"]},
                                 {"name": "back", "pre": ["b"], "add": ["a"],
                                  "del": ["b"]}],
                     "initial": ["a"], "goals": [["b"], ["c"]]},
          "observations": ["a-go"]})
def test_every_verb_exits_0_2_or_3_on_drawn_strips_listings(listing):
    assert_every_verb_exits_0_2_or_3(listing)


def assert_every_verb_exits_0_2_or_3(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        board = Path(tmp, "board.yaml")
        board.write_text(yaml.safe_dump(scenario))
        notes = Path(tmp, "notes.yaml")
        notes.write_text("why_ranks: {}\n")
        for args in (["recognize"], ["explain", "--question", "why"],
                     ["explain", "--question", "whynot"], ["rank"], ["bench"],
                     ["eval", "--annotations", str(notes)]):
            code = main([*args, "--scenario", str(board),
                         "--out", str(Path(tmp, "out.txt"))])
            assert code in (0, 2, 3), args


WRONGLY_TYPED = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.text("ab1-", max_size=3),
    st.lists(st.one_of(st.integers(-3, 12), st.lists(st.integers(-1, 9),
                                                     max_size=2)),
             max_size=3))


@st.composite
def board_mappings(draw):
    """A valid grid or Sokoban scenario in which some body fields, and maybe
    ``goal_names``, ``observations``, the ``map`` or the whole body, are
    replaced by drawn values of the wrong type or range: None, a boolean, a
    small (maybe negative) integer, a string or a (nested) list.

    Half the boards are drawn instead as a ``map:`` that spells out the
    same board fields.  There, up to three map characters rather than body
    fields are redrawn, from ``.#@$12`` and a stray ``*``, so some maps have
    no start cell."""
    if draw(st.booleans()):
        kind, words, rows = "grid", ["right", "down"], "@.2\n.#.\n..1"
        body = {"width": 3, "height": 3, "blocked": [5], "start": 1,
                "goals": [9, 3]}
    else:
        kind, words, rows = "sokoban", ["right", "right"], "@$$12"
        body = {"width": 5, "height": 1, "walls": [], "player": 1,
                "boxes": [2, 3], "storage": [4, 5], "multi_push": True,
                "goals": [[4, 5], [5]]}
    scenario = {"kind": kind, kind: body, "goal_names": ["x", "y"],
                "observations": words}
    if draw(st.booleans()):
        cells = [i for i, ch in enumerate(rows) if ch != "\n"]
        symbols = list(rows)
        for i in draw(st.lists(st.sampled_from(cells), unique=True,
                               max_size=3)):
            symbols[i] = draw(st.sampled_from(".#@$12*"))
        scenario["map"] = "".join(symbols)
        del scenario[kind]
        if kind == "sokoban":
            scenario[kind] = {"goals": body["goals"], "multi_push": True}
    else:
        for key in draw(st.lists(st.sampled_from(sorted(body)), unique=True)):
            body[key] = draw(WRONGLY_TYPED)
    outer = sorted({"goal_names", "observations", "map", kind}
                   & set(scenario))
    for key in draw(st.lists(st.sampled_from(outer), unique=True,
                             max_size=1)):
        scenario[key] = draw(WRONGLY_TYPED)
    return scenario


@settings(max_examples=160, deadline=None)
@given(board_mappings())
@example({"kind": "sokoban", "map": ".$$12",
          "sokoban": {"goals": [[4, 5], [5]], "multi_push": True},
          "goal_names": ["x", "y"], "observations": []})
def test_every_verb_exits_0_2_or_3_on_drawn_board_mappings(scenario):
    assert_every_verb_exits_0_2_or_3(scenario)


LOOSE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 9), st.floats(),
              st.text("og12x-", max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(st.sampled_from(["o1", "o2", "1", "g1",
                                                   "g2", "x"]),
                                  st.integers(-1, 2)),
                        inner, max_size=3)),
    max_leaves=6)


@st.composite
def side_files(draw):
    """An annotation body for ``eval --annotations`` or a priors body for
    ``--priors``: a mapping over that file's keys, or any drawn value, whose
    values may be None, a boolean, a number, a string, a list or a mapping."""
    if draw(st.booleans()):
        option = "--annotations"
        keys = ["scenario", "why_ranks", "whynot_ranks",
                "counterfactual_actions"]
    else:
        option, keys = "--priors", ["g1", "g2", "x"]
    body = draw(st.one_of(st.dictionaries(st.sampled_from(keys), LOOSE,
                                          max_size=len(keys)), LOOSE))
    return option, body


@settings(max_examples=80, deadline=None)
@given(side_files())
def test_every_verb_exits_0_2_or_3_on_drawn_annotation_and_priors_files(side):
    option, body = side
    with tempfile.TemporaryDirectory() as tmp:
        board = Path(tmp, "board.yaml")
        board.write_text(GRID_3X3 + "observations: [right]\n")
        path = Path(tmp, "side.yaml")
        path.write_text(yaml.safe_dump(body))
        notes = Path(tmp, "notes.yaml")
        notes.write_text("why_ranks: {o1: 1}\n")
        if option == "--annotations":
            sends = [["eval", "--annotations", str(path)]]
        else:
            sends = [[*args, "--priors", str(path)] for args in (
                ["recognize"], ["explain", "--question", "why"],
                ["explain", "--question", "whynot"], ["rank"],
                ["eval", "--annotations", str(notes)])]
        for args in sends:
            code = main([*args, "--scenario", str(board),
                         "--out", str(Path(tmp, "out.txt"))])
            assert code in (0, 2, 3), args


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


def test_pool_boards_match_reference_digests(tmp_path):
    """The first board of each rung of the benchmark's generated pools
    (34x34 grids and ``multi_push`` Sokoban boards among them) reproduces
    the SHA-256 of its reference structured output under every digested
    verb."""
    verbs = {"recognize": ["recognize"],
             "whynot": ["explain", "--question", "whynot"]}
    board, out = tmp_path / "board.yaml", tmp_path / "out.json"
    checked, mismatched = [], []
    for pool in ("grid_ladder", "sokoban_deep"):
        rungs = json.loads((ROOT / "perfbench" / "pool" / f"{pool}.json")
                           .read_text())
        for entry in (entries[0] for entries in rungs.values()):
            board.write_text(entry["scenario"])
            for verb, digest in entry["digests"].items():
                code = main([*verbs[verb], "--scenario", str(board),
                             "--format", "structured", "--out", str(out)])
                checked.append(f"{entry['name']}/{verb}")
                if (code != 0 or hashlib.sha256(out.read_bytes()).hexdigest()
                        != digest):
                    mismatched.append(checked[-1])
    assert len(checked) == 10
    assert mismatched == []


HASH_SEED_PROBE = """
import hashlib, sys, tempfile
from pathlib import Path
from grexplain import bundled_bench_paths, bundled_scenario_path
from grexplain.cli import main
paths = bundled_bench_paths() + [bundled_scenario_path("nav_crossroads"),
                                 bundled_scenario_path("sokoban_pairs")]
digest = hashlib.sha256()
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp, "out.json")
    for path in paths:
        for args in {verbs!r}:
            code = main([*args, "--scenario", str(path),
                         "--format", "structured", "--out", str(out)])
            assert code == 0, (path, args)
            digest.update(out.read_bytes())
print(len(paths), digest.hexdigest())
"""


def test_structured_output_does_not_depend_on_the_hash_seed():
    """Two interpreters with different string-hash seeds send every bundled
    scenario under the four answer verbs and read one SHA-256 over all the
    structured outputs: set and dict iteration order must not reach them."""
    script = HASH_SEED_PROBE.format(verbs=ANSWER_VERBS)
    digests = set()
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(
            Path(grexplain.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=120, check=True)
        count, digest = proc.stdout.split()
        assert count == "17"
        digests.add(digest)
    assert len(digests) == 1


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "recognize", "--scenario", "/nope/missing.yaml")
    assert code == 2


def test_budget_exhaustion_exits_3(capsys):
    code, _, err = run(capsys, "recognize", "--scenario", PAIRS, "--budget", "5")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("budget, prefix", [(5, 0), (400, 2)])
def test_budget_exhaustion_names_the_prefix_being_priced(capsys, budget,
                                                         prefix):
    # sokoban_pairs' initial sweep dequeues 324 states and the sweep from
    # the second observed state 423
    code, out, err = run(capsys, "recognize", "--scenario", PAIRS,
                         "--budget", str(budget))
    assert (code, out) == (3, "")
    assert err == (f"error: expansion budget of {budget} nodes exceeded "
                   f"pricing the goals after observation {prefix}\n")


def test_a_stranded_box_exits_2_at_the_push_that_strands_it(tmp_path,
                                                            capsys):
    """The second push strands the box on cell 8, on the right edge, where
    no storage can be reached.  The sweep from that state finds both goals
    unreachable, and so would every later one, so recognition stops at
    observation 2 of the 42."""
    moves = ["right", "right"] + ["left", "left", "right", "right"] * 10
    board = tmp_path / "stranded.yaml"
    board.write_text(yaml.safe_dump({
        "kind": "sokoban", "observations": moves,
        "sokoban": {"width": 4, "height": 3, "player": 5, "boxes": [6],
                    "storage": [1, 9], "goals": [[1], [9]]}}))
    code, out, err = run(capsys, "recognize", "--scenario", str(board))
    assert (code, out) == (2, "")
    assert err == ("error: no goal hypothesis is reachable after "
                   "observation 2\n")


def test_budget_exhaustion_exits_3_on_a_grid(capsys):
    code, _, err = run(capsys, "recognize", "--scenario", NAV, "--budget", "20")
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


def test_priors_too_far_apart_for_a_weight_exit_2(tmp_path, capsys):
    """Posteriors 1e-320 and 1 have a ratio past float range, and so do the
    priors: a weight would be inf - inf = NaN, so every weighing verb stops."""
    board, priors = tmp_path / "board.yaml", tmp_path / "priors.yaml"
    board.write_text("kind: grid\nmap: |\n  @.1\n  ..2\n"
                     "observations: [right, right]\n")
    priors.write_text("g1: 1e-320\ng2: 1\n")
    for verb in (["explain", "--question", "why"],
                 ["explain", "--question", "whynot"], ["rank"]):
        code, out, err = run(capsys, *verb, "--scenario", str(board),
                             "--priors", str(priors), "--format", "structured")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert "out of floating-point range" in err


def test_bench_on_directory(tmp_path, capsys):
    for name in ("nav_crossroads", "sokoban_pairs"):
        src = bundled_scenario_path(name)
        (tmp_path / src.name).write_text(src.read_text())
    code, out, _ = run(capsys, "bench", "--scenario", str(tmp_path))
    assert code == 0
    assert "cf planning %" in out
    assert "grid (1)" in out and "sokoban (1)" in out


def test_bench_on_a_missing_path_or_an_empty_directory_exits_2(tmp_path,
                                                                capsys):
    """No scenario to time is a usage error; a file that exists but does
    not load is a failure row of a run that succeeds."""
    for root in (tmp_path / "missing.yaml", tmp_path):
        code, out, err = run(capsys, "bench", "--scenario", str(root))
        assert (code, out) == (2, "")
        assert err == f"error: no scenario files under {root}\n"
    (tmp_path / "broken.yaml").write_text("kind: grid\nobservations: []\n")
    code, out, _ = run(capsys, "bench", "--scenario",
                       str(tmp_path / "broken.yaml"))
    assert code == 0
    assert "(unloadable) (0)" in out and "failed: broken.yaml: " in out


def test_bench_structured_payload_keys(tmp_path, capsys):
    """Each structured bench report has exactly these keys in this order,
    and its failures are a JSON list of strings."""
    (tmp_path / "broken.yaml").write_text("kind: grid\nobservations: []\n")
    (tmp_path / "ok.yaml").write_text(
        bundled_scenario_path("nav_crossroads").read_text())
    code, out, _ = run(capsys, "bench", "--scenario", str(tmp_path),
                       "--format", "structured")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["domain"] for r in reports] == ["(unloadable)", "grid"]
    for report in reports:
        assert list(report) == [
            "domain", "scenarios", "total_with_explain_s", "total_sd_s",
            "explain_only_s", "explain_only_sd_s", "time_increase_pct",
            "counterfactual_planning_pct", "failures"]
        assert isinstance(report["failures"], list)
        assert all(isinstance(f, str) for f in report["failures"])
    assert [len(r["failures"]) for r in reports] == [1, 0]
    assert reports[0]["failures"][0].startswith("broken.yaml: ")
    assert reports[1]["scenarios"] == 1


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


def parsed(parse, argv):
    """What parsing ``argv`` gives: the namespace's fields or the exit code,
    then everything printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def full_parse(argv):
    return build_parser().parse_args(argv)


PINNED = [case["argv"] for case in CLI_GOLDENS["cases"]]
PINNED_IDS = [" ".join(argv) or "(none)" for argv in PINNED]


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != CLI_GOLDENS["python"],
    reason=f"help and usage goldens were recorded on Python "
           f"{CLI_GOLDENS['python']}; argparse words them differently "
           f"elsewhere")
@pytest.mark.parametrize("case", CLI_GOLDENS["cases"], ids=PINNED_IDS)
def test_help_and_usage_errors_are_byte_identical(monkeypatch, case):
    """``main`` prints the help, usage and error text and exits with the
    status recorded in ``cli_goldens.json``, recorded from the parser built
    by hand before the verb table replaced it."""
    monkeypatch.setenv("COLUMNS", str(CLI_GOLDENS["columns"]))
    assert parsed(main, case["argv"]) == (case["code"], case["stdout"],
                                          case["stderr"])


@pytest.mark.parametrize("argv", PINNED, ids=PINNED_IDS)
def test_main_prints_what_the_full_parser_prints(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert parsed(main, argv) == parsed(full_parse, argv)


OPTIONS = ["--scenario", "--priors", "--budget", "--format", "--out",
           "--question", "--goal", "--annotations", "--help", "--version"]
VALUES = ["X", "why", "whynot", "text", "structured", "ascii-grid", "nope",
          "7", "0", "-1", "abc", ""]
REQUIRED = {"explain": ["--question", "why"], "eval": ["--annotations", "A"]}


@st.composite
def argument_groups(draw):
    """A flag of any verb (or a prefix of one, down to ``--``) in any form,
    a bare value, ``-h`` or ``--``."""
    flag = draw(st.sampled_from(OPTIONS))
    if draw(st.booleans()):
        flag = flag[:draw(st.integers(2, len(flag)))]
    value = draw(st.sampled_from(VALUES))
    return draw(st.sampled_from([[flag], [flag, value], [f"{flag}={value}"],
                                 [value], ["-h"], ["--"]]))


@st.composite
def cli_argvs(draw):
    verb = draw(st.sampled_from([*REQUIRED, "recognize", "rank", "bench",
                                 "frobnicate"]))
    groups = draw(st.lists(argument_groups(), max_size=3))
    if draw(st.integers(0, 3)):
        groups += [["--scenario", "X"], REQUIRED.get(verb, [])]
    lead = draw(argument_groups()) if draw(st.integers(0, 7)) == 0 else []
    return [*lead, verb, *sum(draw(st.permutations(groups)), [])]


def fresh_parse(argv):
    return build_parser.__wrapped__().parse_args(argv)


@settings(max_examples=100, deadline=None)
@given(st.lists(cli_argvs(), min_size=2, max_size=4))
@example([["explain", "--scenario", "X", "--question", "why", "--goal", "g1",
           "--priors", "P"],
          ["explain", "--scenario", "X", "--question", "why"]])
@example([["recognize", "--scenario", "X", "--format", "structured",
           "--out", "F"],
          ["recognize", "--scenario", "X"]])
@example([["rank", "--scenario", "X", "--bogus"], ["rank", "--scenario", "X"]])
@example([["recognize", "--scenario", "X", "--=x"], ["recognize", "-h"]])
def test_a_reused_parser_parses_like_a_fresh_one(argvs):
    """The parser ``main`` keeps for the process carries nothing from one
    parse to the next: after any earlier argv, each argv gives the namespace
    (``command`` and ``fn`` included) or the exit code and printed text of
    a parser built for it alone.  An option given once, such as ``--goal``
    or ``--priors``, reads None in the next parse that leaves it out."""
    for argv in argvs:
        assert parsed(full_parse, argv) == parsed(fresh_parse, argv), argv


def test_main_reads_sys_argv_and_builds_the_parser_once(monkeypatch, capsys):
    """The console script calls ``main()``: the argv comes from
    ``sys.argv``, and the parser is built on the first call and reused."""
    argv = ["recognize", "--scenario", NAV, "--format", "structured"]
    code, expected, _ = run(capsys, *argv)
    assert code == 0

    build_parser.cache_clear()
    monkeypatch.setattr(sys, "argv", ["grexplain", *argv])
    assert main() == 0
    assert capsys.readouterr().out == expected
    monkeypatch.setattr(sys, "argv", ["grexplain", *argv, "--bogus"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "grexplain: error: unrecognized arguments: --bogus\n")
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
