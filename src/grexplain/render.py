"""Deterministic text and ASCII rendering of explanation answers.

Grid and Sokoban actions are verbalized from their names, read by
``grids.parse_move`` ("moved up from cell 26 to cell 17"); anything else
falls back to the raw action name.  The counterfactual clause intentionally
drops the second "cell" ("would have moved up from cell 23 to 14"),
mirroring the phrasing the answers are expected to use.
"""

from __future__ import annotations

from typing import Optional

from .explainer import WhyAnswer, WhyNotAnswer
from .grids import parse_fact, parse_move
from .recognizer import GrProblem
from .strips import GroundAction

_ARROWS = {"up": "^", "down": "v", "left": "<", "right": ">"}
# Map symbol of the piece an initial-state fact places; ``clear`` places none.
_PIECES = {"at": "@", "player": "@", "box": "$"}


def action_phrase(action: GroundAction, problem: GrProblem,
                  counterfactual: bool = False) -> str:
    """Verbal phrase for one action, e.g. "moved right from cell 23 to cell 24"."""
    width = problem.domain.annotations.get("width")
    parsed = parse_move(action.name) if width else None
    if parsed is None:
        return f"performed {action.name}"
    verb, direction, src, dst = parsed
    verbed = {"move": "moved", "push": "pushed a box",
              "push2": "pushed two boxes"}[verb]
    if counterfactual:
        return f"{verbed} {direction} from cell {src} to {dst}"
    return f"{verbed} {direction} from cell {src} to cell {dst}"


def _observed_action(problem: GrProblem, observation_index: int) -> GroundAction:
    return problem.observations[observation_index - 1].action


def render_why(answer: WhyAnswer, problem: GrProblem) -> str:
    """"Because the agent has <marker phrase>." with tied markers joined."""
    seen = []
    for entry in answer.markers:
        if entry.observation_index not in seen:
            seen.append(entry.observation_index)
    phrases = [action_phrase(_observed_action(problem, i), problem)
               for i in sorted(seen)]
    return f"Because the agent has {' and '.join(phrases)}."


def render_why_not(answer: WhyNotAnswer, problem: GrProblem) -> str:
    """One sentence pair per counterfactual goal:
    "Because the agent <observed>. It would have <counterfactual> if the goal
    was <label>." (with already-reached and infeasible goals called out)."""
    lines = []
    for sel in answer.selections:
        label = problem.goal_names[sel.goal]
        if sel.status == "no-evidence":
            lines.append(f"No observation weighs against goal {label}: the "
                         f"evidence is equally consistent with it.")
            continue
        if sel.status == "unsolvable":
            lines.append(f"Goal {label} is ruled out by infeasibility: "
                         f"no plan reaches it from the observed states.")
            continue
        observed = action_phrase(
            _observed_action(problem, sel.marker.observation_index), problem)
        if sel.status == "action":
            would = action_phrase(sel.action, problem, counterfactual=True)
            lines.append(f"Because the agent {observed}. "
                         f"It would have {would} if the goal was {label}.")
        else:
            lines.append(f"Because the agent {observed}. "
                         f"Goal {label} was already reached at that point.")
    return "\n".join(lines)


def render(answer, problem: GrProblem) -> str:
    """Dispatch on the answer kind."""
    if isinstance(answer, WhyAnswer):
        return render_why(answer, problem)
    if isinstance(answer, WhyNotAnswer):
        return render_why_not(answer, problem)
    raise TypeError(f"cannot render {type(answer).__name__}")


def _goal_symbols(problem: GrProblem):
    """One display character per goal hypothesis cell."""
    symbols = {}
    digits = "123456789abcdefghijklmnopqrstuvwxyz"
    ann = problem.domain.annotations
    if ann.get("kind") == "grid":
        for idx, goal in enumerate(problem.goals):
            for fact in goal:
                symbols[parse_fact(fact)[1]] = digits[idx % len(digits)]
    elif ann.get("kind") == "sokoban":
        for idx, cell in enumerate(ann.get("storage", [])):
            symbols[cell] = digits[idx % len(digits)]
    return symbols


def render_ascii(problem: GrProblem, highlight: Optional[set] = None) -> str:
    """Map view with observation arrows and optional marker highlights.

    The start cell keeps its ``@``; arrows mark the other cells observed
    actions left.  ``highlight`` is a set of observation indices whose source
    cells, the start cell included, are drawn as hollow dots.
    """
    ann = problem.domain.annotations
    width, height = ann.get("width"), ann.get("height")
    if not width or not height:
        return "(no map: generic STRIPS domain)"
    blocked = set(ann.get("blocked", []) + ann.get("walls", []))

    cells = {}
    for c in range(1, width * height + 1):
        cells[c] = "#" if c in blocked else "."
    cells.update(_goal_symbols(problem))
    for fact in problem.initial:
        kind, cell = parse_fact(fact)
        if kind in _PIECES:
            cells[cell] = _PIECES[kind]
    start = next((c for c, symbol in cells.items() if symbol == "@"), None)

    for i, obs in enumerate(problem.observations, start=1):
        parsed = parse_move(obs.action.name)
        if parsed is None:
            continue
        _, direction, src, _ = parsed
        if highlight and i in highlight:
            cells[src] = "o"
        elif src != start:
            cells[src] = _ARROWS[direction]

    rows = []
    for r in range(height):
        rows.append("".join(cells[r * width + c + 1] for c in range(width)))
    legend = ("legend: # wall, @ start, $ box, digits goal cells, "
              "^v<> observed moves, o marker")
    return "\n".join(rows + [legend])
