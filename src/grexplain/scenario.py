"""Scenario and annotation files.

Scenarios are human-readable YAML with three kinds:

* ``grid``: a navigation board, given either as explicit fields or as an
  ASCII ``map`` (``#`` wall, ``@`` start, digits/letters goal cells in label
  order, ``.`` free).
* ``sokoban``: a board with walls, player, boxes, storage cells and goal
  assignments.  A ``map`` (``$`` box, labels for storage cells) replaces the
  board fields of the ``sokoban`` block, which still gives ``goals`` and
  ``multi_push``.
* ``strips``: a raw fact/action listing for arbitrary domains.

A map is read into the explicit fields it spells out, so each board kind
has one spec builder and both forms pass the same type and range checks.

Observations are direction words for boards (``up``/``down``/``left``/
``right``) or exact action names; on a ``strips`` listing every token is an
action name, so an action may be called ``up``.  One rule resolves a
direction word on either kind of board: the one action among the domain's
``applicable_actions`` whose ``grids.move_direction`` is that word (at
most one applies).  Annotation files carry ground-truth ranks and
counterfactual actions for the agreement metrics.

Every file is read as bytes and parsed by libyaml when PyYAML was built
with it (``CSafeLoader``), else by PyYAML's pure-Python ``SafeLoader``.
Both build the data with the same safe constructor and detect UTF-8 or
UTF-16 themselves, so a file that is neither is invalid YAML.  Only the
wording and the line of an invalid-YAML message may differ between the two:
an unterminated flow mapping is reported at line 3 by libyaml and at line 2
by the pure-Python parser; both exit 2 with ``error:``.
"""

import math
import reprlib
from pathlib import Path
from typing import NamedTuple, Union

import yaml

from .errors import MalformedSpec, ParseError, ValidationError
from .grids import (DIRECTIONS, GridSpec, check_board_size, compile_grid,
                    move_direction, parse_fact)
from .recognizer import GrProblem, Observation, goal_labels
from .sokoban import SokobanSpec, compile_sokoban
from .strips import DomainDefinition, GroundAction, step

# The scenario files shipped inside the package.
_BUNDLED = Path(__file__).parent / "scenarios"

# The parser every file is read with, chosen once (see the module docstring).
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

# Every file value a message quotes goes through this repr: it caps nesting
# depth, item counts and length, so a value nested a thousand deep gives a
# short message rather than a RecursionError.  Short values read as repr.
_REPR = reprlib.Repr()
_REPR.maxstring = _REPR.maxother = 60
_quote = _REPR.repr


class StripsListing(NamedTuple):
    """Raw STRIPS scenario body: explicit facts, actions, initial and goals."""

    facts: tuple
    actions: tuple  # (name, pre, add, delete) tuples
    initial: frozenset
    goals: tuple


class ScenarioFile(NamedTuple):
    kind: str
    spec: Union[GridSpec, SokobanSpec, StripsListing]
    observations: tuple
    goal_names: tuple = ()
    name: str = ""


class AnnotationFile(NamedTuple):
    scenario: str
    why_ranks: dict
    whynot_ranks: dict
    counterfactual_actions: dict


def _require(mapping, key, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"{path}: missing required field '{key}'")
    return mapping[key]


def _int(value, path):
    """A YAML integer; booleans, floats and strings are rejected, not cast."""
    if type(value) is not int:
        raise ParseError(f"{path}: expected an integer, got {_quote(value)}")
    return value


def _int_list(value, path):
    values = [] if value is None else value
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ParseError(f"{path}: expected a list of integers, "
                         f"got {_quote(value)}")
    return values


def _list(value, path):
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list, got {_quote(value)}")
    return value


def _str_list(value, path):
    values = [] if value is None else _list(value, path)
    if not all(isinstance(v, str) for v in values):
        raise ParseError(f"{path}: expected a list of strings, "
                         f"got {_quote(value)}")
    return values


def _name(value, path):
    """A required YAML string; null and other types are rejected, not cast."""
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string, got {_quote(value)}")
    return value


def _str(value, path, default):
    """An optional YAML string: null reads as absent."""
    return default if value is None else _name(value, path)


def _bool(value, path):
    if not isinstance(value, bool):
        raise ParseError(f"{path}: expected true or false, got {_quote(value)}")
    return value


def _read_map(text, kind: str) -> dict:
    """The body fields an ASCII map spells out for a board of ``kind``.

    ``#`` cells are a grid's ``blocked`` or a board's ``walls``, ``@`` is the
    ``start`` or ``player`` cell, and the label cells, in label order, are a
    grid's ``goals`` or a board's ``storage``.  ``$`` marks a Sokoban
    ``boxes`` cell.  A second ``@``, a label on a second cell and a ``$`` on
    a grid map are errors that name the symbol and its row."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("map: expected a non-empty ASCII map")
    rows = [line.rstrip() for line in text.splitlines() if line.strip()]
    width = max(len(r) for r in rows)
    check_board_size("grid" if kind == "grid" else "board", width, len(rows))
    walls, boxes, labels = [], [], {}
    for r, row in enumerate(rows):
        for c, ch in enumerate(row.ljust(width, ".")):
            cell = r * width + c + 1
            if ch == "#":
                walls.append(cell)
            elif ch == "$" and kind == "sokoban":
                boxes.append(cell)
            elif (ch == "@" or ch.isalnum()) and ch not in labels:
                labels[ch] = cell
            elif ch != ".":
                why = ("repeats an earlier cell" if ch in labels
                       else f"is not allowed on a {kind} map")
                raise ParseError(f"map: symbol {ch!r} at row {r + 1} {why}")
    start = labels.pop("@", None)
    if start is None:
        raise ParseError("map: no '@' start cell")
    labelled = [labels[k] for k in sorted(labels)]
    if kind == "grid":
        return {"width": width, "height": len(rows), "blocked": walls,
                "start": start, "goals": labelled}
    return {"width": width, "height": len(rows), "walls": walls,
            "player": start, "boxes": boxes, "storage": labelled}


def parse_scenario(data: dict, name: str = "") -> ScenarioFile:
    kind = _require(data, "kind", "scenario")
    observations = tuple(_str_list(data.get("observations"), "observations"))
    goal_names = tuple(_str_list(data.get("goal_names"), "goal_names"))
    name = _str(data.get("name"), "name", name)

    if kind == "grid":
        body = (_read_map(data["map"], kind) if "map" in data
                else _mapping(_require(data, "grid", "scenario"), "grid"))
        spec = GridSpec(
            width=_int(_require(body, "width", "grid"), "grid.width"),
            height=_int(_require(body, "height", "grid"), "grid.height"),
            blocked=frozenset(_int_list(body.get("blocked"), "grid.blocked")),
            start=_int(_require(body, "start", "grid"), "grid.start"),
            goal_cells=tuple(_int_list(_require(body, "goals", "grid"),
                                       "grid.goals")),
        )
    elif kind == "sokoban":
        body = _mapping(_require(data, "sokoban", "scenario"), "sokoban")
        if "map" in data:
            body = {**body, **_read_map(data["map"], kind)}
        spec = SokobanSpec(
            width=_int(_require(body, "width", "sokoban"), "sokoban.width"),
            height=_int(_require(body, "height", "sokoban"), "sokoban.height"),
            walls=frozenset(_int_list(body.get("walls"), "sokoban.walls")),
            player=_int(_require(body, "player", "sokoban"), "sokoban.player"),
            boxes=tuple(_int_list(_require(body, "boxes", "sokoban"),
                                  "sokoban.boxes")),
            storage=tuple(_int_list(_require(body, "storage", "sokoban"),
                                    "sokoban.storage")),
            multi_push=_bool(body.get("multi_push", False),
                             "sokoban.multi_push"),
            goal_assignments=tuple(
                tuple(_int_list(a, "sokoban.goals"))
                for a in _list(_require(body, "goals", "sokoban"),
                               "sokoban.goals")),
        )
    elif kind == "strips":
        body = _mapping(_require(data, "strips", "scenario"), "strips")
        actions = []
        for spec_action in _list(_require(body, "actions", "strips"),
                                 "strips.actions"):
            label = _name(_require(spec_action, "name", "strips.actions"),
                          "strips.actions.name")
            pre, add, dele = (
                tuple(_str_list(spec_action.get(key),
                                f"strips.actions.{label}.{key}"))
                for key in ("pre", "add", "del"))
            actions.append((label, pre, add, dele))
        spec = StripsListing(
            facts=tuple(_str_list(_require(body, "facts", "strips"),
                                  "strips.facts")),
            actions=tuple(actions),
            initial=frozenset(_str_list(_require(body, "initial", "strips"),
                                        "strips.initial")),
            goals=tuple(frozenset(_str_list(g, "strips.goals"))
                        for g in _list(_require(body, "goals", "strips"),
                                       "strips.goals")),
        )
    else:
        raise ParseError(f"scenario: unknown kind {_quote(kind)}")

    return ScenarioFile(kind=kind, spec=spec, observations=observations,
                        goal_names=goal_names, name=name)


def _read_mapping(path, what: str) -> dict:
    """The top-level mapping of a YAML file; ParseError messages start with
    ``what`` (scenario, annotations or priors) and name the path."""
    try:
        data = yaml.load(Path(path).read_bytes(), Loader=_LOADER)
    except OSError as exc:
        raise ParseError(f"{what} {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark else ""
        raise ParseError(f"{what} {path}: invalid YAML{where}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{what} {path}: expected a mapping")
    return data


def parse_scenario_file(path) -> ScenarioFile:
    return parse_scenario(_read_mapping(path, "scenario"), name=Path(path).stem)


def _compile(scenario: ScenarioFile):
    """(domain, initial state, goal masks); a raw listing's names are
    encoded here, each error naming its action, initial state or goal."""
    if scenario.kind == "grid":
        return compile_grid(scenario.spec)
    if scenario.kind == "sokoban":
        return compile_sokoban(scenario.spec)
    listing = scenario.spec
    universe = DomainDefinition(listing.facts, ())

    def encode(label, facts):
        try:
            return universe.encode(facts)
        except MalformedSpec as exc:
            raise MalformedSpec(f"{label}: {exc}") from None

    actions = [(name, *(encode(f"action {name}", facts)
                        for facts in fact_sets))
               for name, *fact_sets in listing.actions]
    domain = DomainDefinition(listing.facts, actions)
    names = goal_labels(scenario.goal_names, len(listing.goals))
    return domain, encode("initial state", listing.initial), [
        encode(f"goal {name}", goal) for name, goal in zip(names, listing.goals)]


def _resolve_direction(domain: DomainDefinition, state: int, word: str,
                       index: int) -> GroundAction:
    """The action applicable in the encoded board ``state`` toward ``word``.
    An error names the agent's cell, the state's lowest bit: both board
    compilers number the agent's facts first."""
    for action in domain.applicable_actions(state):
        if move_direction(action.name) == word:
            return action
    cell = parse_fact(domain.facts[(state & -state).bit_length() - 1])[1]
    raise ValidationError(f"observation {index}: no applicable {word} action "
                          f"from cell {cell}")


def build_problem(scenario: ScenarioFile) -> GrProblem:
    """Compile a scenario and replay its observation tokens into a validated
    recognition problem that carries the scenario's board and name."""
    domain, initial, goals = _compile(scenario)
    board = None if scenario.kind == "strips" else scenario.spec
    observations = []
    state = initial
    for i, token in enumerate(scenario.observations, start=1):
        if board is not None and token in DIRECTIONS:
            action = _resolve_direction(domain, state, token, i)
        elif domain.has_action(token):
            action = domain.action(token)
        else:
            raise ValidationError(
                f"observation {i}: unknown action {_quote(token)}")
        state = step(state, action)
        if state is None:
            raise ValidationError(
                f"observation {i}: action {action.name} is not applicable")
        observations.append(Observation(action, state))
    return GrProblem(domain, initial, goals, observations, scenario.goal_names,
                     board, scenario.name)


def load_scenario(path) -> GrProblem:
    """Parse, compile and validate a scenario file in one step."""
    return build_problem(parse_scenario_file(path))


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. "nav_crossroads",
    "sokoban_pairs", or "bench/grid_01")."""
    path = _BUNDLED / f"{name}.yaml"
    if not path.exists():
        raise ParseError(f"no bundled scenario named {name!r}")
    return path


def bundled_bench_paths() -> list:
    """All scenario files of the bundled benchmark suite."""
    return sorted((_BUNDLED / "bench").glob("*.yaml"))


def serialize_scenario(scenario: ScenarioFile) -> str:
    """Dump a scenario back to YAML; reparsing yields an identical problem."""
    data = {"kind": scenario.kind}
    if scenario.name:
        data["name"] = scenario.name
    if scenario.kind == "grid":
        spec = scenario.spec
        data["grid"] = {"width": spec.width, "height": spec.height,
                        "blocked": sorted(spec.blocked), "start": spec.start,
                        "goals": list(spec.goal_cells)}
    elif scenario.kind == "sokoban":
        spec = scenario.spec
        data["sokoban"] = {"width": spec.width, "height": spec.height,
                           "walls": sorted(spec.walls), "player": spec.player,
                           "boxes": list(spec.boxes),
                           "storage": list(spec.storage),
                           "multi_push": spec.multi_push,
                           "goals": [list(a) for a in spec.goal_assignments]}
    else:
        listing = scenario.spec
        data["strips"] = {
            "facts": list(listing.facts),
            "actions": [{"name": n, "pre": list(p), "add": list(a),
                         "del": list(d)} for n, p, a, d in listing.actions],
            "initial": sorted(listing.initial),
            "goals": [sorted(g) for g in listing.goals],
        }
    if scenario.goal_names:
        data["goal_names"] = list(scenario.goal_names)
    data["observations"] = list(scenario.observations)
    return yaml.safe_dump(data, sort_keys=False)


def _mapping(value, path) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected a mapping, got {_quote(value)}")
    return value


def _rank_mapping(raw, path) -> dict:
    """Observation index -> rank; ``o1``, ``1`` and ``o01`` all name
    observation 1, so two of them in one mapping are an error."""
    ranks, keys = {}, {}
    for key, value in _mapping(raw, path).items():
        text = str(key).removeprefix("o")
        if not (text.isascii() and text.isdigit()):
            raise ParseError(f"{path}: bad observation key {_quote(key)}")
        index = int(text)
        if index in keys:
            raise ParseError(
                f"{path}: keys {_quote(keys[index])} and {_quote(key)} both "
                f"name observation {index}")
        keys[index] = key
        rank = _int(value, f"{path}.{key}")
        if rank < 0:
            raise ParseError(f"{path}: ranks must be nonnegative ({key}: {value})")
        ranks[index] = rank
    return ranks


def parse_annotations(data: dict) -> AnnotationFile:
    return AnnotationFile(
        scenario=_str(data.get("scenario"), "scenario", ""),
        why_ranks=_rank_mapping(data.get("why_ranks"), "why_ranks"),
        whynot_ranks=_rank_mapping(data.get("whynot_ranks"), "whynot_ranks"),
        counterfactual_actions={
            _name(k, "counterfactual_actions"):
                _name(v, f"counterfactual_actions.{k}")
            for k, v in _mapping(data.get("counterfactual_actions"),
                                 "counterfactual_actions").items()},
    )


def load_annotations(path) -> AnnotationFile:
    return parse_annotations(_read_mapping(path, "annotations"))


def load_priors(path, problem: GrProblem) -> list:
    """Per-goal prior weights from a YAML mapping of goal label to weight.

    Rejects a label that names no goal, and a weight so far below the
    others that its normalized prior is 0: the recognizer would rule its
    goal out as if it were unreachable."""
    data = _read_mapping(path, "priors")
    unknown = [k for k in data if _name(k, "priors") not in problem.goal_names]
    if unknown:
        raise ValidationError(
            f"priors: unknown goal labels {unknown}; "
            f"choose from {list(problem.goal_names)}")
    weights = []
    for name in problem.goal_names:
        if name not in data:
            raise ValidationError(f"priors: no weight for goal {name}")
        value = data[name]
        try:
            if isinstance(value, bool):  # float(True) would read 1.0
                raise TypeError(value)
            weight = float(value)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"priors: weight for {name} is not a number: "
                f"{_quote(value)}") from None
        if not 0 < weight < math.inf:
            raise ValidationError(
                f"priors: weight for {name} must be positive and finite")
        weights.append(weight)
    total = sum(weights)
    if total == math.inf:
        raise ValidationError("priors: the weights must have a finite sum")
    priors = [w / total for w in weights]
    for name, prior in zip(problem.goal_names, priors):
        if prior == 0:
            raise ValidationError(
                f"priors: weight for {name} is too small against the others "
                f"and normalizes to a prior of 0")
    return priors
