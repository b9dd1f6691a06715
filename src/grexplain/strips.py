"""Ground STRIPS world model: facts, states, unit-cost actions, progression.

Facts are strings with lexicographic (stable, total) ordering.  At the
edges (scenarios, problems, observations, ``apply``, rendering) a state is a
frozenset of the facts that hold (closed world: anything not listed is
false).  Inside search a state is a Python ``int``: ``DomainDefinition``
gives fact i bit i, so ``encode`` packs a fact set into an int,
applicability is ``pre & s == pre`` and progression is ``s & ~del | add``.
Names are turned into bits once, when the domain is built, and search never
sees them again, so facts are not interned.  Compilers share equal fact
sets between actions (a grid move's precondition and delete effect are one
frozenset), and equal sets share one mask.

Each domain interns the state ints it meets to dense ids (``state_id``;
``states[id]`` maps back) and keeps a successor table indexed by id: row
``id`` lists ``(action, successor id)`` pairs in action name order.  A row
fills lazily, the first time ``expand`` is asked for its state, and lives
as long as the domain, so the table's size is bounded by the distinct
states searched on that domain.  Search keys its maps by id,
and ids are small consecutive ints that hash apart; a state int of one bit,
such as a grid position ``1 << i``, hashes to one of only 61 values.

A domain is not safe to share between threads: interning reads the length
of ``states`` and then appends to it, which is not atomic.  Nothing in the
package uses threads.  States (frozensets) and plans (tuples of actions)
are plain values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import MalformedSpec, NotApplicable

# A state is the set of facts that currently hold.
State = frozenset

Fact = str


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
        for field in ("preconditions", "add_effects", "delete_effects"):
            object.__setattr__(self, field, frozenset(getattr(self, field)))
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
        self.facts = tuple(facts)
        self.actions = tuple(actions)
        self.annotations = dict(annotations or {})
        self._index = {fact: i for i, fact in enumerate(self.facts)}
        if len(self._index) != len(self.facts):
            raise MalformedSpec("duplicate facts in domain universe")

        self._by_name = {}
        for action in self.actions:
            if action.name in self._by_name:
                raise MalformedSpec(f"duplicate action name: {action.name}")
            self._by_name[action.name] = action

        # Successor index over bits: fact i is bit i.  Each action is bucketed
        # under its least-common precondition fact (its pivot), so expansion
        # only tests actions whose pivot holds; condition-free actions are
        # always candidates.  Actions are ranked by name, so sorting ranks
        # sorts names.  Equal fact sets share one mask int, and encoding a
        # set is where an undeclared fact is caught.
        masks = {}

        def mask(facts):
            found = masks.get(facts)
            if found is None:
                found = masks[facts] = self.encode(facts)
            return found

        counts = {}
        for action in self.actions:
            for fact in action.preconditions:
                counts[fact] = counts.get(fact, 0) + 1
        self._by_rank = tuple(sorted(self.actions, key=lambda a: a.name))
        self._effects = {}  # action name -> (delete mask, add mask)
        self._buckets = {}  # pivot fact index -> [(rank, pre mask)]
        self._unconditional = []
        for rank, action in enumerate(self._by_rank):
            try:
                pre = mask(action.preconditions)
                self._effects[action.name] = (mask(action.delete_effects),
                                              mask(action.add_effects))
            except MalformedSpec as exc:
                raise MalformedSpec(f"action {action.name}: {exc}") from None
            if not action.preconditions:
                self._unconditional.append(rank)
                continue
            pivot = min(action.preconditions, key=lambda f: (counts[f], f))
            self._buckets.setdefault(self._index[pivot], []).append((rank, pre))
        self._pivot_mask = sum(1 << i for i in self._buckets)
        self._ids = {}  # state int -> id
        self.states = []  # id -> state int
        self.rows = []  # id -> ((action, successor id), ...), or None

    def action(self, name: str) -> GroundAction:
        try:
            return self._by_name[name]
        except KeyError:
            raise MalformedSpec(f"unknown action: {name}") from None

    def has_action(self, name: str) -> bool:
        return name in self._by_name

    def encode(self, facts: Iterable[str]) -> int:
        """The state int of a fact set; MalformedSpec names any fact the
        domain does not declare."""
        facts = frozenset(facts)
        try:
            return sum(1 << self._index[f] for f in facts)
        except KeyError:
            raise MalformedSpec(
                f"facts not declared in the domain: "
                f"{sorted(f for f in facts if f not in self._index)}") from None

    def applicable_actions(self, state: int) -> list:
        """All actions applicable in the encoded ``state``, sorted by name."""
        ranks = list(self._unconditional)
        pivots = state & self._pivot_mask
        buckets = self._buckets
        while pivots:
            index = pivots.bit_length() - 1
            pivots ^= 1 << index
            for rank, pre in buckets[index]:
                if pre & state == pre:
                    ranks.append(rank)
        ranks.sort()
        by_rank = self._by_rank
        return [by_rank[r] for r in ranks]

    def state_id(self, state: int) -> int:
        """The dense id of the encoded ``state``, interned on first sight."""
        found = self._ids.get(state)
        if found is None:
            found = self._ids[state] = len(self.states)
            self.states.append(state)
            self.rows.append(None)
        return found

    def expand(self, state_id: int) -> tuple:
        """Row ``state_id`` of the successor table: ``(action, successor
        id)`` pairs in action name order.  Computed by ``applicable_actions``
        the first time a state is asked for, then read from the table."""
        found = self.rows[state_id]
        if found is None:
            state = self.states[state_id]
            effects = self._effects
            found = []
            for action in self.applicable_actions(state):
                dele, add = effects[action.name]
                found.append((action, self.state_id(state & ~dele | add)))
            found = self.rows[state_id] = tuple(found)
        return found

    def __repr__(self):
        return f"DomainDefinition({len(self.facts)} facts, {len(self.actions)} actions)"


def applicable(state: State, action: GroundAction) -> bool:
    """True iff all of the action's preconditions hold in the state."""
    return action.preconditions <= state


def apply(state: State, action: GroundAction) -> State:
    """Progress a state through an action: (facts \\ deletes) | adds."""
    if not applicable(state, action):
        missing = sorted(action.preconditions - state)
        raise NotApplicable(f"{action.name}: missing preconditions {missing}")
    return (state - action.delete_effects) | action.add_effects
