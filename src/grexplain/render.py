"""Deterministic text and ASCII rendering of explanation answers.

On a problem with a ``board``, grid and Sokoban actions are verbalized
from their names, read by ``grids.parse_move`` ("moved up from cell 26 to
cell 17"), and ``render_ascii`` draws the board.  Any other action, and
every action of a problem without a board (a raw STRIPS listing, or a
problem built by hand without ``board=``), falls back to the raw action
name.  The counterfactual clause intentionally drops the second "cell"
("would have moved up from cell 23 to 14"), mirroring the phrasing the
answers are expected to use.
"""

from typing import Optional

from .errors import ValidationError
from .explainer import WhyAnswer, WhyNotAnswer
from .grids import GridSpec, parse_move
from .recognizer import GrProblem
from .strips import GroundAction

_ARROWS = {"up": "^", "down": "v", "left": "<", "right": ">"}
# Map symbol of each goal cell (grid) or storage cell (Sokoban), in order.
_LABELS = "123456789abcdefghijklmnopqrstuvwxyz"


def action_phrase(action: GroundAction, problem: GrProblem,
                  counterfactual: bool = False) -> str:
    """Verbal phrase for one action, e.g. "moved right from cell 23 to cell 24"."""
    parsed = parse_move(action.name) if problem.board is not None else None
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
    phrases = [action_phrase(_observed_action(problem, i), problem)
               for i in sorted({e.observation_index for e in answer.markers})]
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


def render_ascii(problem: GrProblem, highlight: Optional[set] = None) -> str:
    """Map view of ``problem.board`` with observation arrows and optional
    marker highlights.

    The board's pieces keep their symbols (``@`` the agent's start, ``$``
    a box); arrows mark the other cells observed actions left.  ``highlight`` is a
    set of observation indices whose source cells, pieces included, are
    drawn as hollow dots.  More than 35 labelled cells raise ValidationError.
    """
    board = problem.board
    if board is None:
        return "(no map: generic STRIPS domain)"
    width, height = board.width, board.height
    if isinstance(board, GridSpec):
        blocked, labelled, marks = board.blocked, board.goal_cells, "goal"
        pieces = {board.start: "@"}
    else:
        blocked, labelled, marks = board.walls, board.storage, "storage"
        pieces = {board.player: "@", **dict.fromkeys(board.boxes, "$")}
    if len(labelled) > len(_LABELS):
        raise ValidationError(
            f"ascii-grid: the board has {len(labelled)} {marks} cells, more "
            f"than the {len(_LABELS)} map labels (1-9, then a-z)")

    cells = {}
    for c in range(1, width * height + 1):
        cells[c] = "#" if c in blocked else "."
    cells.update(zip(labelled, _LABELS))
    cells.update(pieces)

    for i, obs in enumerate(problem.observations, start=1):
        parsed = parse_move(obs.action.name)
        if parsed is None:
            continue
        _, direction, src, _ = parsed
        if highlight and i in highlight:
            cells[src] = "o"
        elif src not in pieces:
            cells[src] = _ARROWS[direction]

    rows = []
    for r in range(height):
        rows.append("".join(cells[r * width + c + 1] for c in range(width)))
    box = "" if isinstance(board, GridSpec) else "$ box, "
    legend = (f"legend: # wall, @ start, {box}1-9 then a-z {marks} cells, "
              "^v<> observed moves, o marker")
    return "\n".join(rows + [legend])
