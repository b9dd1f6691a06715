import json
import sys
import textwrap
import typing
from pathlib import Path

import pytest
import yaml

import grexplain
from grexplain import (DomainDefinition, GridSpec, GrProblem, GroundAction,
                       Observation, ParseError, PlanningTask, SokobanSpec,
                       ValidationError, bundled_bench_paths,
                       bundled_scenario_path, compile_grid, compile_sokoban,
                       load_annotations, load_priors, load_scenario,
                       mirror_posteriors)
from grexplain import scenario as scenario_module
from grexplain.bench import ScenarioTiming, TimingReport
from grexplain.cli import main
from grexplain.errors import MalformedSpec
from grexplain.explainer import (CfSelection, CompleteExplanan, Exclusion,
                                 ExplananEntry, WhyAnswer, WhyNotAnswer)
from grexplain.grids import DIRECTIONS, MAX_CELLS
from grexplain.recognizer import PosteriorTrace
from grexplain.scenario import (ScenarioFile, _resolve_direction,
                                parse_scenario, parse_scenario_file,
                                serialize_scenario)

from conftest import applicable, apply

ROOT = Path(__file__).resolve().parents[1]
libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                             reason="PyYAML was built without libyaml")


def write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


def problem_signature(problem):
    return (problem.domain.facts,
            tuple(a.name for a in problem.domain.actions),
            problem.initial, problem.goals,
            tuple(o.action.name for o in problem.observations))


def test_bundled_nav_scenario_loads_fully(nav_problem):
    assert len(nav_problem.domain.facts) == 45
    assert len(nav_problem.goals) == 3
    assert len(nav_problem.observations) == 8
    assert nav_problem.goal_names == ("g1", "g2", "g3")


def test_empty_observation_list_gives_prior_only(tmp_path):
    path = write(tmp_path, """
        kind: grid
        grid: {width: 3, height: 3, blocked: [], start: 5, goals: [1, 9]}
        observations: []
    """)
    problem = load_scenario(path)
    assert problem.observations == ()
    trace = mirror_posteriors(problem)
    assert trace.final == pytest.approx((0.5, 0.5))


def test_inapplicable_observation_reports_index(tmp_path):
    path = write(tmp_path, """
        kind: grid
        grid: {width: 3, height: 3, blocked: [], start: 1, goals: [9]}
        observations: [up]
    """)
    with pytest.raises(ValidationError) as err:
        load_scenario(path)
    assert "observation 1" in str(err.value)


@pytest.mark.parametrize("text, word, cell", [
    ("kind: grid\nmap: '@.1'\nobservations: [up]\n", "up", 1),
    ("kind: sokoban\nmap: |\n  #@$.1\n  .....\nsokoban: {goals: [[5]]}\n"
     "observations: [left]\n", "left", 2),
    ("kind: sokoban\nmap: |\n  .@$#1\n  .....\nsokoban: {goals: [[5]]}\n"
     "observations: [right]\n", "right", 2),
], ids=["off-the-board", "into-a-wall", "box-against-a-wall"])
def test_a_direction_word_with_no_applicable_action_names_the_agents_cell(
        tmp_path, capsys, text, word, cell):
    path = write(tmp_path, text)
    assert main(["recognize", "--scenario", str(path)]) == 2
    message = f"observation 1: no applicable {word} action from cell {cell}"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_action_token_rejected(tmp_path):
    path = write(tmp_path, """
        kind: grid
        grid: {width: 3, height: 3, blocked: [], start: 1, goals: [9]}
        observations: [right, teleport]
    """)
    with pytest.raises(ValidationError) as err:
        load_scenario(path)
    assert "observation 2" in str(err.value)


def test_action_name_observations_accepted(tmp_path):
    path = write(tmp_path, """
        kind: grid
        grid: {width: 3, height: 3, blocked: [], start: 1, goals: [9]}
        observations: [move-right-1-2, down]
    """)
    problem = load_scenario(path)
    assert [o.action.name for o in problem.observations] == [
        "move-right-1-2", "move-down-2-5"]


@pytest.mark.parametrize("board, compile_board, verbs", [
    (GridSpec(3, 3, frozenset({5}), 1, (9,)), compile_grid, {"move"}),
    (SokobanSpec(4, 3, frozenset({12}), 1, (2, 6), (3, 7), ((3, 7),), True),
     compile_sokoban, {"move", "push", "push2"}),
], ids=["grid", "sokoban-multi-push"])
def test_direction_words_resolve_to_the_unique_applicable_action(
        board, compile_board, verbs):
    # Oracle: scan every action by name, independent of the resolution rule,
    # at every state reachable by plain progression.
    domain, initial, _ = compile_board(board)
    initial = domain.decode(initial)
    seen, frontier = {initial}, [initial]
    while frontier:
        state = frontier.pop()
        for action in domain.actions:
            if applicable(domain, state, action):
                succ = apply(domain, state, action)
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
    resolved = set()
    for state in seen:
        for word in DIRECTIONS:
            expected = [a for a in domain.actions
                        if a.name.split("-")[1] == word
                        and applicable(domain, state, a)]
            assert len(expected) <= 1
            encoded = domain.encode(state)
            if expected:
                assert (_resolve_direction(domain, encoded, word, 1)
                        == expected[0])
                resolved.add(expected[0].name.split("-")[0])
            else:
                with pytest.raises(ValidationError):
                    _resolve_direction(domain, encoded, word, 1)
    assert resolved == verbs


def test_round_trip_serialization(tmp_path, sokoban_problem):
    scenario = parse_scenario_file(bundled_scenario_path("sokoban_pairs"))
    dumped = write(tmp_path, serialize_scenario(scenario), "copy.yaml")
    again = load_scenario(dumped)
    assert problem_signature(again) == problem_signature(sokoban_problem)


def test_round_trip_map_form_grid(tmp_path, nav_problem):
    scenario = parse_scenario_file(bundled_scenario_path("nav_crossroads"))
    dumped = write(tmp_path, serialize_scenario(scenario), "copy.yaml")
    again = load_scenario(dumped)
    assert problem_signature(again) == problem_signature(nav_problem)


def test_sokoban_map_form(tmp_path):
    path = write(tmp_path, """
        kind: sokoban
        map: |
          .....
          .@$1.
          ...2.
        sokoban:
          multi_push: false
          goals:
            - [9]
            - [14]
        observations: [right]
    """)
    problem = load_scenario(path)
    decode = problem.domain.decode
    assert "player-7" in decode(problem.initial)
    assert "box-8" in decode(problem.initial)
    assert tuple(map(decode, problem.goals)) == (frozenset({"box-9"}),
                                                 frozenset({"box-14"}))
    assert problem.observations[0].action.name == "push-right-7-8"


def test_an_oversized_map_fails_the_size_check_before_its_cells_are_read():
    """A map past ``MAX_CELLS`` gets the same message as explicit fields,
    even where a later cell would be a map error: no cell was read."""
    row = "@1" + "." * MAX_CELLS + "@"
    for data, board in (({"kind": "grid", "map": row}, "grid"),
                        ({"kind": "sokoban", "map": row,
                          "sokoban": {"goals": [[2]]}}, "board")):
        with pytest.raises(MalformedSpec, match=rf"^{board} of width "
                           rf"{MAX_CELLS + 3} and height 1 has "
                           rf"{MAX_CELLS + 3} cells, more than the limit"):
            parse_scenario(data)


def test_map_and_explicit_forms_agree():
    by_map = parse_scenario({
        "kind": "grid",
        "map": "..1\n.#.\n@.2\n",
        "observations": ["right"],
    })
    explicit = parse_scenario({
        "kind": "grid",
        "grid": {"width": 3, "height": 3, "blocked": [5], "start": 7,
                 "goals": [3, 9]},
        "observations": ["right"],
    })
    assert by_map.spec == explicit.spec


@pytest.mark.parametrize("data, message", [
    ({"kind": "grid", "map": "@.1\n#.1\n.@2"},
     "map: symbol '1' at row 2 repeats an earlier cell"),
    ({"kind": "grid", "map": "@.1\n#.2\n.@."},
     "map: symbol '@' at row 3 repeats an earlier cell"),
    ({"kind": "grid", "map": "@$1\n..2"},
     "map: symbol '$' at row 1 is not allowed on a grid map"),
    ({"kind": "grid", "grid": 5}, "grid: expected a mapping, got 5"),
    ({"kind": "sokoban", "sokoban": 5}, "sokoban: expected a mapping, got 5"),
    ({"kind": "strips", "strips": 5}, "strips: expected a mapping, got 5"),
    ({"kind": "grid", "grid": None}, "grid: missing required field 'width'"),
], ids=["repeated-label", "second-start", "box-on-grid", "grid-body",
        "sokoban-body", "strips-body", "null-body"])
def test_malformed_boards_name_the_fault(data, message):
    with pytest.raises(ParseError) as err:
        parse_scenario(data)
    assert str(err.value) == message


def test_strips_kind_end_to_end(tmp_path):
    path = write(tmp_path, """
        kind: strips
        strips:
          facts: [raw, cooked, burnt]
          actions:
            - {name: cook, pre: [raw], add: [cooked], del: [raw]}
            - {name: scorch, pre: [cooked], add: [burnt], del: [cooked]}
          initial: [raw]
          goals:
            - [cooked]
            - [burnt]
        observations: [cook, scorch]
    """)
    problem = load_scenario(path)
    trace = mirror_posteriors(problem)
    # "cook" lies on both optimal plans; "scorch" destroys the cooked goal
    assert trace.per_prefix[0] == pytest.approx((0.5, 0.5))
    assert trace.per_prefix[1] == pytest.approx((0.0, 1.0))
    dumped = write(tmp_path, serialize_scenario(parse_scenario_file(path)),
                   "copy.yaml")
    again = load_scenario(dumped)
    assert problem_signature(again) == problem_signature(problem)
    assert again.domain.actions == problem.domain.actions


def test_strips_action_named_like_a_direction_word_is_observable(tmp_path):
    # Direction words resolve only on boards; a listing names its actions.
    path = write(tmp_path, """
        kind: strips
        strips:
          facts: [a, b, c]
          actions:
            - {name: up, pre: [a], add: [b], del: [a]}
            - {name: side, pre: [a], add: [c], del: [a]}
          initial: [a]
          goals: [[b], [c]]
        observations: [up]
    """)
    problem = load_scenario(path)
    assert problem.board is None
    assert [o.action.name for o in problem.observations] == ["up"]
    assert problem.domain.decode(
        problem.observations[0].resulting_state) == frozenset({"b"})


def test_parse_errors_carry_diagnostics(tmp_path):
    with pytest.raises(ParseError) as err:
        load_scenario(write(tmp_path, "kind: grid\ngrid: {width: 3", "bad.yaml"))
    assert "line" in str(err.value)
    with pytest.raises(ParseError):
        load_scenario(write(tmp_path, "kind: grid\nobservations: []", "m.yaml"))
    with pytest.raises(ParseError):
        load_scenario(write(tmp_path, "kind: hanoi\n", "k.yaml"))
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "missing.yaml")


def test_undeclared_goal_fact_is_rejected_at_load(tmp_path):
    path = write(tmp_path, """
        kind: strips
        strips:
          facts: [a, b]
          actions:
            - {name: go, pre: [a], add: [b], del: [a]}
          initial: [a]
          goals: [[b], [zzz]]
        observations: []
    """)
    with pytest.raises(ValidationError, match=r"^goal g2: .*\['zzz'\]"):
        load_scenario(path)


def test_fewer_goal_names_than_goals_is_rejected_not_truncated(tmp_path):
    # The goals past the names are kept, so the counts differ, even when
    # one of them holds an undeclared fact.
    listing = """
        kind: strips
        strips:
          facts: [a, b, c]
          actions:
            - {name: go, pre: [a], add: [b], del: [a]}
          initial: [a]
          goals: [[b], [c], THIRD]
        goal_names: NAMES
        observations: []
    """
    for third in ("[c]", "[zzz]"):
        path = write(tmp_path, listing.replace("THIRD", third)
                     .replace("NAMES", "[first]"))
        with pytest.raises(ValidationError, match="goal_names must match"):
            load_scenario(path)
    path = write(tmp_path, listing.replace("THIRD", "[zzz]")
                 .replace("NAMES", "[x, y, z]"))
    with pytest.raises(ValidationError, match=r"^goal z: .*\['zzz'\]"):
        load_scenario(path)


def test_semantically_invalid_spec_is_validation_error(tmp_path):
    path = write(tmp_path, """
        kind: grid
        grid: {width: 3, height: 3, blocked: [1], start: 1, goals: [9]}
        observations: []
    """)
    with pytest.raises(ValidationError):
        load_scenario(path)


def test_annotations_load_and_normalize(tmp_path):
    path = write(tmp_path, """
        scenario: sokoban_pairs
        why_ranks: {o8: 1, o7: 2}
        whynot_ranks: {2: 1}
        counterfactual_actions: {"(g3,g4)": push2-right-20-21}
    """, "ann.yaml")
    ann = load_annotations(path)
    assert ann.why_ranks == {8: 1, 7: 2}
    assert ann.whynot_ranks == {2: 1}
    assert ann.counterfactual_actions == {"(g3,g4)": "push2-right-20-21"}


def test_null_names_read_as_absent_and_other_types_are_rejected(tmp_path):
    grid = "grid: {width: 2, height: 1, start: 1, goals: [2]}\n"
    board = write(tmp_path, "kind: grid\nname: null\n" + grid, "board.yaml")
    assert load_scenario(board).name == "board"
    notes = write(tmp_path, "scenario: null\n", "ann.yaml")
    assert load_annotations(notes).scenario == ""
    with pytest.raises(ParseError, match="name: expected a string, got 5"):
        parse_scenario({"kind": "grid", "name": 5, "grid": {}})
    write(tmp_path, "scenario: 7\n", "ann.yaml")
    with pytest.raises(ParseError, match="scenario: expected a string, got 7"):
        load_annotations(notes)


def test_null_action_and_goal_names_are_rejected_naming_the_field(tmp_path):
    listing = {"facts": ["a"], "initial": [], "goals": [["a"]],
               "actions": [{"name": None, "add": ["a"]}]}
    with pytest.raises(ParseError, match=r"^strips\.actions\.name: expected "
                                         r"a string, got None"):
        parse_scenario({"kind": "strips", "strips": listing})
    for mapping, field, got in [("{g1: null}", "counterfactual_actions.g1",
                                 "None"),
                                ("{null: go}", "counterfactual_actions", "None"),
                                ("{1: go}", "counterfactual_actions", "1")]:
        notes = write(tmp_path, f"counterfactual_actions: {mapping}\n",
                      "ann.yaml")
        with pytest.raises(ParseError,
                           match=rf"^{field}: expected a string, got {got}$"):
            load_annotations(notes)


@pytest.mark.parametrize("key", [
    "o1_0", "'1_0'", "'o 2'", "' 2'", "o\uff12", "\u0662", "o-1", "-1", "o",
    "oo1", "1.0", "true"])
def test_annotations_reject_keys_other_than_o_and_ascii_digits(tmp_path, key):
    """Only ``o<digits>`` or ``<digits>`` names an observation: no
    underscore, space, sign or non-ASCII digit, which ``int`` would take."""
    path = write(tmp_path, f"why_ranks: {{{key}: 1}}\n", "ann.yaml")
    with pytest.raises(ParseError, match="why_ranks: bad observation key"):
        load_annotations(path)


def test_annotations_reject_negative_ranks(tmp_path):
    path = write(tmp_path, "why_ranks: {o1: -2}\n", "ann.yaml")
    with pytest.raises(ParseError):
        load_annotations(path)


def test_priors_loading(tmp_path, nav_problem):
    path = write(tmp_path, "g1: 2\ng2: 1\ng3: 1\n", "priors.yaml")
    priors = load_priors(path, nav_problem)
    assert priors == pytest.approx([0.5, 0.25, 0.25])
    with pytest.raises(ValidationError):
        load_priors(write(tmp_path, "g1: 1\n", "short.yaml"), nav_problem)
    with pytest.raises(ValidationError):
        load_priors(write(tmp_path, "g1: 0\ng2: 1\ng3: 1\n", "zero.yaml"),
                    nav_problem)
    with pytest.raises(ValidationError, match=r"unknown goal labels \['gX'\]"):
        load_priors(write(tmp_path, "g1: 1\ng2: 1\ng3: 1\ngX: 5\n",
                          "extra.yaml"), nav_problem)


def test_bundled_accessors():
    assert bundled_scenario_path("nav_crossroads").exists()
    assert len(bundled_bench_paths()) == 15
    with pytest.raises(ParseError):
        bundled_scenario_path("nope")


def yaml_texts():
    """(label, bytes) of every bundled scenario file and of every scenario
    text in the benchmark's pools (``bundled_suite.json`` holds digests
    only)."""
    bundled = Path(grexplain.__file__).parent / "scenarios"
    for path in sorted(p for p in bundled.rglob("*") if p.is_file()):
        yield path.relative_to(bundled).as_posix(), path.read_bytes()
    for pool in sorted((ROOT / "perfbench" / "pool").glob("*.json")):
        for rung in json.loads(pool.read_text()).values():
            for entry in rung if isinstance(rung, list) else ():
                yield f"{pool.stem}/{entry['name']}", entry["scenario"].encode()


@libyaml
def test_libyaml_and_pure_python_loaders_give_equal_data():
    checked = 0
    for label, text in yaml_texts():
        assert (yaml.load(text, Loader=yaml.CSafeLoader)
                == yaml.load(text, Loader=yaml.SafeLoader)), label
        checked += 1
    assert checked > 100


@libyaml
def test_files_are_read_with_libyaml_where_pyyaml_has_it():
    # An install that loses libyaml fails here rather than loading slowly.
    assert scenario_module._LOADER is yaml.CSafeLoader


INVALID_INPUTS = [
    ("scenario", 'kind: grid\nmap: ""\nobservations: []\n',
     "map: expected a non-empty ASCII map"),
    ("priors", "g1: [\n", "invalid YAML at line"),
    ("scenario", "kind: grid\ngrid: {width: 3", "invalid YAML at line"),
]


def read_invalid_inputs(tmp_path, nav_problem):
    """The ParseError message of each of ``INVALID_INPUTS``."""
    messages = []
    for what, text, _ in INVALID_INPUTS:
        path = write(tmp_path, text, f"{what}.yaml")
        with pytest.raises(ParseError) as err:
            if what == "priors":
                load_priors(path, nav_problem)
            else:
                load_scenario(path)
        messages.append(str(err.value))
    return messages


def test_pure_python_loader_gives_the_same_answers(tmp_path, nav_problem,
                                                   monkeypatch):
    """Under ``SafeLoader`` a scenario gives the same structured output, and
    malformed files raise ParseError with the same leading message (an
    invalid-YAML message keeps its line; only its detail may differ)."""
    nav = str(bundled_scenario_path("nav_crossroads"))
    outputs, messages = [], []
    for loader in (scenario_module._LOADER, yaml.SafeLoader):
        monkeypatch.setattr(scenario_module, "_LOADER", loader)
        out = tmp_path / f"{loader.__name__}.json"
        assert main(["explain", "--question", "whynot", "--scenario", nav,
                     "--format", "structured", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
        messages.append(read_invalid_inputs(tmp_path, nav_problem))
    assert outputs[0] == outputs[1]
    for (_, _, expected), default, pure in zip(INVALID_INPUTS, *messages):
        assert expected in default and expected in pure
    assert messages[0][0] == messages[1][0]  # the map error is not YAML's


def test_utf16_file_reads_like_its_utf8_text(tmp_path):
    text = ("kind: grid\nname: caf\u00e9\ngrid: {width: 3, height: 1, "
            "start: 1, goals: [3]}\nobservations: [right]\n")
    utf8, utf16 = tmp_path / "utf8.yaml", tmp_path / "utf16.yaml"
    utf8.write_bytes(text.encode("utf-8"))
    utf16.write_bytes(text.encode("utf-16"))  # with a byte-order mark
    assert load_scenario(utf16).name == "caf\u00e9"
    assert (problem_signature(load_scenario(utf16))
            == problem_signature(load_scenario(utf8)))


def _line_problem():
    """A problem on a 3 x 1 grid, its goals given as a list and unnamed."""
    domain, initial, goals = compile_grid(GridSpec(3, 1, (), 1, [2, 3]))
    return GrProblem(domain, initial, goals, [])


RECORDS = {
    "Observation": (lambda: Observation(GroundAction("go", 1, 2, 1), 2),
                    {"resulting_state": 2}),
    "PosteriorTrace": (lambda: PosteriorTrace((0.5, 0.5), (), frozenset({0, 1}),
                                              frozenset()),
                       {"per_prefix": ()}),
    "ExplananEntry": (lambda: ExplananEntry(0, 1, 1, 0.5), {"woe": 0.5}),
    "Exclusion": (lambda: Exclusion(1, "no-weight", 0, 1),
                  {"reason": "no-weight"}),
    "CompleteExplanan": (lambda: CompleteExplanan((), (), 0, frozenset({0}),
                                                  frozenset({1})),
                         {"entries": ()}),
    "PlanningTask": (lambda: PlanningTask(DomainDefinition(["a"], ()), 0, 1),
                     {"goal": 1}),
    "GridSpec": (lambda: GridSpec(3, 2, [5], 1, [3, 6]),
                 {"blocked": frozenset({5}), "goal_cells": (3, 6)}),
    "SokobanSpec": (lambda: SokobanSpec(4, 1, [], 1, [2], [4], [[4]]),
                    {"walls": frozenset(), "boxes": (2,), "storage": (4,),
                     "goal_assignments": ((4,),)}),
    "GrProblem": (_line_problem, {"goals": (2, 4), "observations": (),
                                  "goal_names": ("g1", "g2")}),
    "ScenarioFile": (lambda: ScenarioFile("grid", GridSpec(3, 1), ("right",)),
                     {"observations": ("right",)}),
    "WhyAnswer": (lambda: WhyAnswer((ExplananEntry(0, 1, 2, 0.5),)),
                  {"markers": (ExplananEntry(0, 1, 2, 0.5),), "rendered": ""}),
    "CfSelection": (lambda: CfSelection(1, (ExplananEntry(0, 1, 2, -0.5),),
                                        ExplananEntry(0, 1, 2, -0.5), None,
                                        "already-satisfied"),
                    {"goal": 1, "marker": ExplananEntry(0, 1, 2, -0.5),
                     "action": None, "status": "already-satisfied"}),
    "WhyNotAnswer": (lambda: WhyNotAnswer((), 0.25),
                     {"selections": (), "planning_s": 0.25, "rendered": ""}),
    "ScenarioTiming": (lambda: ScenarioTiming("grid_01", 0.5, 0.25, 0.125),
                       {"name": "grid_01", "counterfactual_s": 0.125}),
    "TimingReport": (lambda: TimingReport("grid", 0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                          0.0, ("broken.yaml: bad",)),
                     {"scenario_count": 0, "failures": ("broken.yaml: bad",)}),
}


@pytest.mark.parametrize("build, fields", RECORDS.values(), ids=list(RECORDS))
def test_records_refuse_assignment_and_normalize_their_fields(build, fields):
    """Each record's fields read as given, with the board specs' lists
    stored as a frozenset and tuples and a problem's unnamed goals called
    g1, g2, ...; assigning to any of them raises AttributeError."""
    record = build()
    for name, value in fields.items():
        got = getattr(record, name)
        assert (got, type(got)) == (value, type(value))
        with pytest.raises(AttributeError):
            setattr(record, name, value)


def test_record_field_annotations_are_evaluated_types():
    """No field annotation of a record class defined in a grexplain module
    is a ``typing.ForwardRef``: under string annotations ``NamedTuple``
    compiles one per field on every import of the package."""
    import grexplain.bench  # noqa: F401  (loaded on demand by the CLI)
    import grexplain.cli  # noqa: F401
    records = [cls for name, module in list(sys.modules.items())
               if name.startswith("grexplain")
               for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, tuple)
               and hasattr(cls, "_fields") and cls.__module__ == name]
    assert set(RECORDS) <= {cls.__name__ for cls in records}
    assert [f"{cls.__name__}.{field}" for cls in records
            for field, hint in vars(cls).get("__annotations__", {}).items()
            if isinstance(hint, typing.ForwardRef)] == []
