"""Ground STRIPS world model: facts, states, unit-cost actions, progression.

Facts are interned strings with lexicographic (stable, total) ordering, and a
state is simply a frozenset of the facts that hold (closed world: anything not
listed is false).  Domains are immutable after construction, so they can be
shared freely between threads; states and plans are plain values.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import MalformedSpec, NotApplicable

# A state is the set of facts that currently hold.
State = frozenset

Fact = str


def _intern_all(facts: Iterable[str]) -> frozenset:
    return frozenset(sys.intern(f) for f in facts)


@dataclass(frozen=True)
class GroundAction:
    """A ground action with positive preconditions and add/delete effects.

    Every action costs 1: plan cost is plan length throughout the package.
    """

    name: str
    preconditions: frozenset
    add_effects: frozenset
    delete_effects: frozenset

    def __post_init__(self):
        object.__setattr__(self, "preconditions", _intern_all(self.preconditions))
        object.__setattr__(self, "add_effects", _intern_all(self.add_effects))
        object.__setattr__(self, "delete_effects", _intern_all(self.delete_effects))
        if self.add_effects & self.delete_effects:
            raise MalformedSpec(
                f"action {self.name}: add and delete effects overlap: "
                f"{sorted(self.add_effects & self.delete_effects)}"
            )

    def __repr__(self):
        return f"GroundAction({self.name})"


class DomainDefinition:
    """An ordered fact universe plus a list of ground actions.

    ``annotations`` carries compiler-provided hints (e.g. grid width) that
    scenario loading, reports and the text renderer consult; it never affects
    STRIPS semantics.
    """

    def __init__(self, facts: Sequence[str], actions: Sequence[GroundAction],
                 annotations: Optional[dict] = None):
        self.facts = tuple(sys.intern(f) for f in facts)
        self.actions = tuple(actions)
        self.annotations = dict(annotations or {})
        self._fact_set = frozenset(self.facts)
        if len(self._fact_set) != len(self.facts):
            raise MalformedSpec("duplicate facts in domain universe")

        self._by_name = {}
        for action in self.actions:
            if action.name in self._by_name:
                raise MalformedSpec(f"duplicate action name: {action.name}")
            self._by_name[action.name] = action
            stray = (action.preconditions | action.add_effects
                     | action.delete_effects) - self._fact_set
            if stray:
                raise MalformedSpec(
                    f"action {action.name} uses facts outside the universe: {sorted(stray)}"
                )

        # Successor index: bucket each action under its least-common
        # precondition fact, so expansion only tests actions whose pivot fact
        # holds.  Condition-free actions are always candidates.
        counts = {}
        for action in self.actions:
            for fact in action.preconditions:
                counts[fact] = counts.get(fact, 0) + 1
        self._pivot_buckets = {}
        self._unconditional = []
        for action in self.actions:
            if not action.preconditions:
                self._unconditional.append(action)
                continue
            pivot = min(action.preconditions, key=lambda f: (counts[f], f))
            self._pivot_buckets.setdefault(pivot, []).append(action)

    def action(self, name: str) -> GroundAction:
        try:
            return self._by_name[name]
        except KeyError:
            raise MalformedSpec(f"unknown action: {name}") from None

    def has_action(self, name: str) -> bool:
        return name in self._by_name

    def contains_facts(self, facts: Iterable[str]) -> bool:
        return self._fact_set.issuperset(facts)

    def applicable_actions(self, state: State) -> list:
        """All actions applicable in ``state``, sorted by name."""
        candidates = list(self._unconditional)
        for fact in state:
            candidates.extend(self._pivot_buckets.get(fact, ()))
        result = [a for a in candidates if a.preconditions <= state]
        result.sort(key=lambda a: a.name)
        return result

    def __repr__(self):
        return f"DomainDefinition({len(self.facts)} facts, {len(self.actions)} actions)"


@dataclass(frozen=True)
class Plan:
    """A sequence of ground actions; its cost is its length (unit costs)."""

    actions: tuple = ()

    def __len__(self):
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)


@dataclass(frozen=True)
class PlanCheck:
    """Result of validating a plan: truthy iff valid, with a failure reason."""

    ok: bool
    reason: Optional[str] = None
    failed_at: Optional[int] = None  # 0-based index of the first failing step

    def __bool__(self):
        return self.ok


def applicable(state: State, action: GroundAction) -> bool:
    """True iff all of the action's preconditions hold in the state."""
    return action.preconditions <= state


def apply(state: State, action: GroundAction) -> State:
    """Progress a state through an action: (facts \\ deletes) | adds."""
    if not applicable(state, action):
        missing = sorted(action.preconditions - state)
        raise NotApplicable(f"{action.name}: missing preconditions {missing}")
    return (state - action.delete_effects) | action.add_effects


def validate_plan(domain: DomainDefinition, initial: State, goal: frozenset,
                  plan) -> PlanCheck:
    """Check that a plan is executable from ``initial`` and reaches ``goal``.

    Invalid plans are reported, not raised: the result carries a reason code
    and the index of the first failing step.
    """
    actions = plan.actions if isinstance(plan, Plan) else tuple(plan)
    state = initial
    for i, action in enumerate(actions):
        if not domain.has_action(action.name):
            return PlanCheck(False, f"unknown-action:{action.name}", i)
        if not applicable(state, action):
            return PlanCheck(False, f"not-applicable:{action.name}", i)
        state = apply(state, action)
    if not goal <= state:
        return PlanCheck(False, "goal-not-reached", len(actions))
    return PlanCheck(True)
