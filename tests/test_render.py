import pytest

from grexplain import (GridSpec, GrProblem, answer_why, answer_why_not,
                       build_explanan, bundled_scenario_path, compile_grid,
                       load_scenario, mirror_posteriors, render, render_ascii)
from grexplain.scenario import StripsListing, ScenarioFile, build_problem

from conftest import walk


def test_why_not_text_matches_verbal_templates(nav_problem):
    trace = mirror_posteriors(nav_problem)
    explanan = build_explanan(trace)
    answer = answer_why_not(nav_problem, explanan)
    lines = answer.rendered.splitlines()
    assert lines[0] == ("Because the agent moved right from cell 23 to cell 24. "
                        "It would have moved up from cell 23 to 14 "
                        "if the goal was g1.")
    assert lines[1] == ("Because the agent moved up from cell 26 to cell 17. "
                        "It would have moved right from cell 26 to 27 "
                        "if the goal was g3.")


def test_why_text_names_the_marker_move(nav_problem):
    trace = mirror_posteriors(nav_problem)
    explanan = build_explanan(trace)
    answer = answer_why(nav_problem, explanan)
    assert answer.rendered == "Because the agent has moved up from cell 17 to cell 8."


def test_generic_domain_falls_back_to_action_names():
    listing = StripsListing(
        facts=("raw", "cooked", "plated"),
        actions=(("cook", ("raw",), ("cooked",), ("raw",)),
                 ("plate", ("cooked",), ("plated",), ())),
        initial=frozenset({"raw"}),
        goals=(frozenset({"plated"}), frozenset({"cooked"})),
    )
    scenario = ScenarioFile("strips", listing, ("cook", "plate"))
    problem = build_problem(scenario)
    trace = mirror_posteriors(problem)
    explanan = build_explanan(trace)
    answer = answer_why(problem, explanan)
    assert answer.rendered.startswith("Because the agent has performed ")


def test_sokoban_push_phrases(sokoban_problem):
    trace = mirror_posteriors(sokoban_problem)
    explanan = build_explanan(trace)
    answer = answer_why(sokoban_problem, explanan)
    assert "pushed two boxes left from cell 23 to cell 22" in answer.rendered


def test_why_not_reports_infeasible_goal():
    spec = GridSpec(3, 3, frozenset({6, 8}), 1, (9, 3, 7))
    domain, initial, goals = compile_grid(spec)
    obs = walk(domain, initial, ["move-right-1-2"])
    problem = GrProblem(domain, initial, tuple(goals), obs)
    trace = mirror_posteriors(problem)
    # goal 9 is unreachable: posteriors are zero, so no markers exist for it
    explanan = build_explanan(trace)
    answer = answer_why_not(problem, explanan)
    statuses = {sel.goal: sel.status for sel in answer.selections}
    assert statuses[0] == "unsolvable"
    assert statuses[2] == "action"
    assert "Goal g1 is ruled out by infeasibility" in answer.rendered


def test_why_not_goal_already_reached():
    # the path passes straight through counterfactual goal g2 (cell 2): the
    # marker's preceding state already satisfies it
    domain, initial, goals = compile_grid(GridSpec(1, 3, frozenset(), 1, (3, 2)))
    obs = walk(domain, initial, ["move-down-1-2", "move-down-2-3"])
    problem = GrProblem(domain, initial, tuple(goals), obs)
    trace = mirror_posteriors(problem)
    explanan = build_explanan(trace)
    answer = answer_why_not(problem, explanan)
    assert len(answer.selections) == 1
    assert answer.selections[0].status == "already-satisfied"
    assert "already reached" in answer.rendered


def test_render_rejects_unknown_answer_type(nav_problem):
    with pytest.raises(TypeError):
        render(object(), nav_problem)


def test_ascii_grid_rendering(nav_problem):
    art = render_ascii(nav_problem, highlight={4, 7})
    rows = art.splitlines()
    assert rows[0] == "....1##2."
    # the start (cell 20) keeps its @; markers o4 and o7 leave cells 23, 26
    assert rows[2] == ".@>>o>>o."
    assert rows[-1].startswith("legend:")


def test_ascii_sokoban_rendering(sokoban_problem):
    rows = render_ascii(sokoban_problem).splitlines()
    # initial pieces keep their symbols: the player's start (cell 2) its @
    # and both initial boxes (cells 22, 23) their $; arrows mark other cells
    assert rows[:-1] == ["#@>>>v...", ".#.#.v...", ".12$$<34.", "...#.#...",
                         "....6...."]


def test_ascii_legend_names_the_labels_and_what_they_mark(nav_problem,
                                                          sokoban_problem):
    assert render_ascii(nav_problem).splitlines()[-1] == (
        "legend: # wall, @ start, 1-9 then a-z goal cells, "
        "^v<> observed moves, o marker")
    assert render_ascii(sokoban_problem).splitlines()[-1] == (
        "legend: # wall, @ start, $ box, 1-9 then a-z storage cells, "
        "^v<> observed moves, o marker")


@pytest.mark.parametrize("name", ["nav_crossroads", "sokoban_pairs"])
def test_hand_built_problem_renders_from_its_board(name):
    # A problem built by hand with board= renders as the loaded one does;
    # without a board it renders as a raw STRIPS listing.
    loaded = load_scenario(bundled_scenario_path(name))
    fields = (loaded.domain, loaded.initial, loaded.goals, loaded.observations,
              loaded.goal_names)
    explanan = build_explanan(mirror_posteriors(loaded))

    def outputs(problem):
        return (render_ascii(problem, highlight={1}),
                answer_why(problem, explanan).rendered,
                answer_why_not(problem, explanan).rendered)

    assert outputs(GrProblem(*fields, board=loaded.board)) == outputs(loaded)
    bare = GrProblem(*fields)
    assert render_ascii(bare) == "(no map: generic STRIPS domain)"
    assert answer_why(bare, explanan).rendered.startswith(
        "Because the agent has performed ")
    assert "Because the agent performed " in answer_why_not(
        bare, explanan).rendered


def test_ascii_generic_domain_message():
    listing = StripsListing(
        facts=("a", "b"), actions=(("go", ("a",), ("b",), ("a",)),),
        initial=frozenset({"a"}), goals=(frozenset({"b"}),))
    problem = build_problem(ScenarioFile("strips", listing, ()))
    assert "generic STRIPS" in render_ascii(problem)
