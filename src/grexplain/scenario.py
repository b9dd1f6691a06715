"""Scenario and annotation files.

Scenarios are human-readable YAML with three kinds:

* ``grid``: a navigation board, given either as explicit fields or as an
  ASCII map (``#`` wall, ``@`` start, digits/letters goal cells, ``.`` free).
* ``sokoban``: a board with walls, player, boxes, storage cells and goal
  assignments; the map alternative adds ``$`` for boxes and uses digits for
  storage cells.
* ``strips``: a raw fact/action listing for arbitrary domains.

Observations are direction words for boards (``up``/``down``/``left``/
``right``; resolved against the current state, so a direction means a move or
a push, whichever applies) or exact action names.  Annotation files carry
ground-truth ranks and counterfactual actions for the agreement metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Union

import yaml

from .errors import MalformedSpec, ParseError, ValidationError
from .grids import GridSpec, compile_grid, grid_neighbors
from .recognizer import GrProblem, Observation
from .sokoban import SokobanSpec, compile_sokoban
from .strips import DomainDefinition, GroundAction, State, applicable, apply

DIRECTION_WORDS = ("up", "down", "left", "right")


@dataclass(frozen=True)
class StripsListing:
    """Raw STRIPS scenario body: explicit facts, actions, initial and goals."""

    facts: tuple
    actions: tuple  # (name, pre, add, delete) tuples
    initial: frozenset
    goals: tuple


@dataclass(frozen=True)
class ScenarioFile:
    kind: str
    spec: Union[GridSpec, SokobanSpec, StripsListing]
    observations: tuple
    goal_names: tuple = ()
    name: str = ""


@dataclass(frozen=True)
class AnnotationFile:
    scenario: str
    why_ranks: dict
    whynot_ranks: dict
    counterfactual_actions: dict


def _require(mapping, key, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"{path}: missing required field '{key}'")
    return mapping[key]


def _int(value, path):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ParseError(f"{path}: expected an integer, got {value!r}") from None


def _int_list(value, path):
    try:
        return [int(v) for v in (value or [])]
    except (TypeError, ValueError):
        raise ParseError(f"{path}: expected a list of integers") from None


def _parse_grid_map(text: str):
    if not isinstance(text, str) or not text.strip():
        raise ParseError("map: expected a non-empty ASCII map")
    rows = [line.rstrip() for line in text.splitlines() if line.strip()]
    width = max(len(r) for r in rows)
    blocked, goals, start = set(), {}, None
    boxes, storage = [], {}
    for r, row in enumerate(rows):
        for c in range(width):
            ch = row[c] if c < len(row) else "."
            cell = r * width + c + 1
            if ch == "#":
                blocked.add(cell)
            elif ch == "@":
                start = cell
            elif ch == "$":
                boxes.append(cell)
            elif ch.isalnum():
                goals[ch] = cell
                storage[ch] = cell
            elif ch != ".":
                raise ParseError(f"map: unknown symbol {ch!r} at row {r + 1}")
    ordered = [goals[k] for k in sorted(goals)]
    return {"width": width, "height": len(rows), "blocked": blocked,
            "start": start, "goal_cells": ordered, "boxes": boxes,
            "storage": ordered}


def parse_scenario(data: dict, name: str = "") -> ScenarioFile:
    kind = _require(data, "kind", "scenario")
    observations = tuple(str(o) for o in data.get("observations", []) or [])
    goal_names = tuple(str(g) for g in data.get("goal_names", []) or [])
    name = str(data.get("name", name))

    try:
        if kind == "grid":
            if "map" in data:
                parsed = _parse_grid_map(data["map"])
                if parsed["start"] is None:
                    raise ParseError("map: no '@' start cell")
                spec = GridSpec(parsed["width"], parsed["height"],
                                frozenset(parsed["blocked"]), parsed["start"],
                                tuple(parsed["goal_cells"]))
            else:
                body = _require(data, "grid", "scenario")
                spec = GridSpec(
                    width=_int(_require(body, "width", "grid"), "grid.width"),
                    height=_int(_require(body, "height", "grid"), "grid.height"),
                    blocked=frozenset(_int_list(body.get("blocked"), "grid.blocked")),
                    start=_int(_require(body, "start", "grid"), "grid.start"),
                    goal_cells=tuple(_int_list(_require(body, "goals", "grid"),
                                               "grid.goals")),
                )
        elif kind == "sokoban":
            body = _require(data, "sokoban", "scenario")
            if "map" in data:
                parsed = _parse_grid_map(data["map"])
                base = {"width": parsed["width"], "height": parsed["height"],
                        "walls": frozenset(parsed["blocked"]),
                        "player": parsed["start"],
                        "boxes": tuple(parsed["boxes"]),
                        "storage": tuple(parsed["storage"])}
            else:
                base = {"width": _int(_require(body, "width", "sokoban"),
                                      "sokoban.width"),
                        "height": _int(_require(body, "height", "sokoban"),
                                       "sokoban.height"),
                        "walls": frozenset(_int_list(body.get("walls"),
                                                     "sokoban.walls")),
                        "player": _int(_require(body, "player", "sokoban"),
                                       "sokoban.player"),
                        "boxes": tuple(_int_list(_require(body, "boxes", "sokoban"),
                                                 "sokoban.boxes")),
                        "storage": tuple(_int_list(_require(body, "storage",
                                                            "sokoban"),
                                                   "sokoban.storage"))}
            spec = SokobanSpec(
                goal_assignments=tuple(
                    tuple(_int_list(a, "sokoban.goals"))
                    for a in _require(body, "goals", "sokoban")),
                multi_push=bool(body.get("multi_push", False)),
                **base,
            )
        elif kind == "strips":
            body = _require(data, "strips", "scenario")
            actions = []
            for spec_action in _require(body, "actions", "strips"):
                actions.append((
                    str(_require(spec_action, "name", "strips.actions")),
                    tuple(spec_action.get("pre", []) or []),
                    tuple(spec_action.get("add", []) or []),
                    tuple(spec_action.get("del", []) or []),
                ))
            spec = StripsListing(
                facts=tuple(str(f) for f in _require(body, "facts", "strips")),
                actions=tuple(actions),
                initial=frozenset(str(f) for f in _require(body, "initial", "strips")),
                goals=tuple(frozenset(str(f) for f in g)
                            for g in _require(body, "goals", "strips")),
            )
        else:
            raise ParseError(f"scenario: unknown kind {kind!r}")
    except MalformedSpec as exc:
        raise ValidationError(str(exc)) from exc

    return ScenarioFile(kind=kind, spec=spec, observations=observations,
                        goal_names=goal_names, name=name)


def parse_scenario_file(path) -> ScenarioFile:
    path = Path(path)
    try:
        data = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark else ""
        raise ParseError(f"{path}: invalid YAML{where}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: scenario must be a mapping")
    return parse_scenario(data, name=path.stem)


def _compile(scenario: ScenarioFile):
    if scenario.kind == "grid":
        return compile_grid(scenario.spec)
    if scenario.kind == "sokoban":
        return compile_sokoban(scenario.spec)
    listing = scenario.spec
    actions = [GroundAction(name, frozenset(pre), frozenset(add), frozenset(dele))
               for name, pre, add, dele in listing.actions]
    domain = DomainDefinition(listing.facts, actions)
    return domain, State(listing.initial), list(listing.goals)


def _resolve_direction(domain: DomainDefinition, state: State, word: str,
                       index: int) -> GroundAction:
    """Find the unique applicable action matching a direction word."""
    width = domain.annotations.get("width")
    if width is None:
        raise ValidationError(
            f"observation {index}: direction words need a board domain")
    if domain.annotations.get("kind") == "grid":
        cell = next(int(f.split("-", 1)[1]) for f in state if f.startswith("at-"))
        for direction, nbr in grid_neighbors(cell, width,
                                             domain.annotations["height"]):
            if direction == word:
                name = f"move-{word}-{cell}-{nbr}"
                if domain.has_action(name):
                    return domain.action(name)
        raise ValidationError(f"observation {index}: cannot move {word} from "
                              f"cell {cell}")
    cell = next(int(f.split("-", 1)[1]) for f in state if f.startswith("player-"))
    for verb in ("move", "push", "push2"):
        for direction, nbr in grid_neighbors(cell, width,
                                             domain.annotations["height"]):
            if direction != word:
                continue
            name = f"{verb}-{word}-{cell}-{nbr}"
            if domain.has_action(name) and applicable(state, domain.action(name)):
                return domain.action(name)
    raise ValidationError(f"observation {index}: no applicable {word} action "
                          f"from cell {cell}")


def build_problem(scenario: ScenarioFile) -> GrProblem:
    """Compile a scenario and replay its observation tokens into a validated
    recognition problem."""
    try:
        domain, initial, goals = _compile(scenario)
    except MalformedSpec as exc:
        raise ValidationError(str(exc)) from exc

    observations = []
    state = initial
    for i, token in enumerate(scenario.observations, start=1):
        if token in DIRECTION_WORDS:
            action = _resolve_direction(domain, state, token, i)
        elif domain.has_action(token):
            action = domain.action(token)
        else:
            raise ValidationError(f"observation {i}: unknown action {token!r}")
        if not applicable(state, action):
            raise ValidationError(
                f"observation {i}: action {action.name} is not applicable")
        state = apply(state, action)
        observations.append(Observation(action, state))

    if scenario.name:
        domain.annotations.setdefault("name", scenario.name)
    return GrProblem(domain=domain, initial=initial, goals=tuple(goals),
                     observations=tuple(observations),
                     goal_names=scenario.goal_names)


def load_scenario(path) -> GrProblem:
    """Parse, compile and validate a scenario file in one step."""
    return build_problem(parse_scenario_file(path))


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. "nav_crossroads",
    "sokoban_pairs", or "bench/grid_01")."""
    path = Path(str(resources.files("grexplain") / "scenarios" / f"{name}.yaml"))
    if not path.exists():
        raise ParseError(f"no bundled scenario named {name!r}")
    return path


def bundled_bench_paths() -> list:
    """All scenario files of the bundled benchmark suite."""
    root = Path(str(resources.files("grexplain") / "scenarios" / "bench"))
    return sorted(root.glob("*.yaml"))


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


def _rank_mapping(raw, path) -> dict:
    ranks = {}
    for key, value in (raw or {}).items():
        text = str(key)
        if text.startswith("o"):
            text = text[1:]
        try:
            index = int(text)
        except ValueError:
            raise ParseError(f"{path}: bad observation key {key!r}") from None
        rank = _int(value, f"{path}.{key}")
        if rank < 0:
            raise ParseError(f"{path}: ranks must be nonnegative ({key}: {value})")
        ranks[index] = rank
    return ranks


def parse_annotations(data: dict) -> AnnotationFile:
    return AnnotationFile(
        scenario=str(data.get("scenario", "")),
        why_ranks=_rank_mapping(data.get("why_ranks"), "why_ranks"),
        whynot_ranks=_rank_mapping(data.get("whynot_ranks"), "whynot_ranks"),
        counterfactual_actions={
            str(k): str(v)
            for k, v in (data.get("counterfactual_actions") or {}).items()},
    )


def load_annotations(path) -> AnnotationFile:
    path = Path(path)
    try:
        data = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: annotations must be a mapping")
    return parse_annotations(data)


def load_priors(path, problem: GrProblem) -> list:
    """Per-goal prior weights from a YAML mapping of goal label to weight."""
    path = Path(path)
    try:
        data = yaml.safe_load(path.read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: priors must map goal labels to weights")
    weights = []
    for name in problem.goal_names:
        if name not in data:
            raise ValidationError(f"priors: no weight for goal {name}")
        try:
            weight = float(data[name])
        except (TypeError, ValueError):
            raise ValidationError(
                f"priors: weight for {name} is not a number: {data[name]!r}") from None
        if not 0 < weight < math.inf:
            raise ValidationError(
                f"priors: weight for {name} must be positive and finite")
        weights.append(weight)
    total = sum(weights)
    return [w / total for w in weights]
