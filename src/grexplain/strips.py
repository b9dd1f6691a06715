"""Ground STRIPS world model: facts, states, unit-cost actions, progression.

Facts are strings with lexicographic (stable, total) ordering.  A domain
numbers its facts in declaration order, fact i is bit i, and a state is a
Python ``int`` holding the bits of the facts that hold (closed world:
anything not set is false).  An action is a name plus three such masks, so
applicability is ``pre & s == pre`` and progression is ``s & ~del | add``
(``step``).  The compilers write the bits straight from the fact order they
emit, initial states and goals included; a raw STRIPS listing turns fact
names into masks through ``encode``, the one name-to-bit reader, and
``decode`` is its inverse.  Past the file reader every state and goal is an
int: a recognition problem's initial state and goals, an observation's
resulting state and a planning task.  Fact names are read only where they
come from outside (a raw listing) and written only where they go out to a
person (an error message) or name a board cell (a direction word).

The successor index files each action under one precondition fact, its
pivot, the least by the key (not in ``one_hot``, number of actions with
that precondition, fact name); a single-bit precondition, such as a grid
move's, is its own pivot.  ``one_hot`` is the domain's exactly-one
group: facts of which, as its compiler guarantees, every reachable state
holds exactly one.  So an action with a grouped precondition is filed under
the group's value, and an expansion tests only the actions of the one group
fact that holds.  A compiler that knows such a group passes it; a raw
STRIPS listing declares none, and no group is guessed from fact names.
A bucket lists its actions in name order, each as an entry ``(pre, ~del,
add, action)`` with the masks stored as ints, so a state ``s`` the action
applies in leads to ``s & ~del | add``.  Expansion scans the bucket of
every pivot that holds and tests each candidate's full precondition mask,
so the group decides only how many candidates are tested, never the rows: a
state that breaks the group still gets its exact row, in name order.  Where
exactly one pivot holds and no action is condition-free, as in every
reachable grid and Sokoban state, that bucket's matches are the row's
actions as they stand, and ``expand`` fills the row straight from their
entries without calling ``applicable_actions``; otherwise the matches of
all buckets that hold are merged and sorted by name by
``applicable_actions``, and ``expand`` progresses the state through each.

Each domain interns the state ints it meets to dense ids (``state_id``;
``states[id]`` maps back) and keeps a successor table indexed by id: row
``id`` is a tuple of successor ids, one per applicable action, in action
name order.  A row holds no action: whoever needs one re-derives it from
``applicable_actions`` and ``step``.  A tuple of ints holds no reference
the garbage collector has to follow, so the collector stops tracking a row
instead of promoting it with every collection.  A row fills lazily, the
first time ``expand`` is asked for its state, and lives as long as the
domain, so the table's size is bounded by the distinct states searched on
that domain.  Search keys its maps by id, and ids are small consecutive
ints that hash apart; a state int of one bit, such as a grid position
``1 << i``, hashes to one of only 61 values.

A domain is not safe to share between threads: interning reads the length
of ``states`` and then appends to it, which is not atomic.  Nothing in the
package uses threads.  Actions, states and plans (tuples of actions) are
plain values.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import MalformedSpec


class GroundAction(NamedTuple):
    """A ground action: positive preconditions and add/delete effects, each
    an int mask over its domain's facts.

    Every action costs 1: plan cost is plan length throughout the package.
    """

    name: str
    preconditions: int
    add_effects: int
    delete_effects: int

    def __repr__(self):
        return f"GroundAction({self.name})"


_name = attrgetter("name")


def step(state: int, action: GroundAction) -> Optional[int]:
    """The state ``action`` leads to from ``state``, or None where one of
    its preconditions does not hold."""
    pre = action.preconditions
    if pre & state != pre:
        return None
    return state & ~action.delete_effects | action.add_effects


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class DomainDefinition:
    """An ordered fact universe plus a list of ground actions.

    ``one_hot`` is an optional mask of facts that the domain's compiler
    guarantees are exactly-one in every reachable state.  An action with a
    precondition in it is bucketed under that fact (the pivot rule is in
    the module docstring); the mask changes the speed of expansion, never
    its rows.
    """

    def __init__(self, facts: Sequence[str], actions: Sequence[GroundAction],
                 one_hot: int = 0):
        self.facts = tuple(facts)
        self.actions = tuple(actions)
        self.one_hot = one_hot
        self._index = {fact: i for i, fact in enumerate(self.facts)}
        if len(self._index) != len(self.facts):
            raise MalformedSpec("duplicate facts in domain universe")
        if one_hot >> len(self.facts):
            raise MalformedSpec(
                f"one-hot group: a mask bit lies outside the "
                f"{len(self.facts)} declared facts")

        # Successor index: each action is bucketed under its pivot (see the
        # module docstring), so expansion only tests actions whose pivot
        # holds; condition-free actions are always candidates.
        self._by_name = {}
        n = len(self.facts)
        counts = [0] * n
        for action in self.actions:
            name, pre, add, dele = action
            if name in self._by_name:
                raise MalformedSpec(f"duplicate action name: {name}")
            self._by_name[name] = action
            if (pre | add | dele) >> n:
                raise MalformedSpec(
                    f"action {name}: a mask bit lies outside the "
                    f"{n} declared facts")
            if add & dele:
                raise MalformedSpec(
                    f"action {name}: add and delete effects overlap: "
                    f"{sorted(self.decode(add & dele))}")
            if pre & (pre - 1):
                for i in _bits(pre):
                    counts[i] += 1
            elif pre:
                counts[pre.bit_length() - 1] += 1
        pivot_key = [(not one_hot >> i & 1, count, fact)
                     for i, (count, fact) in enumerate(zip(counts, self.facts))]
        # pivot fact index -> [(pre, ~del, add, action)], masks as ints
        self._buckets = {}
        self._unconditional = []  # condition-free actions
        for action in sorted(self.actions, key=_name):
            pre = action.preconditions
            if not pre:
                self._unconditional.append(action)
                continue
            if pre & (pre - 1):
                pivot = min(_bits(pre), key=pivot_key.__getitem__)
            else:
                pivot = pre.bit_length() - 1
            self._buckets.setdefault(pivot, []).append(
                (pre, ~action.delete_effects, action.add_effects, action))
        self._pivot_mask = sum(1 << i for i in self._buckets)
        self._ids = {}  # state int -> id
        self.states = []  # id -> state int
        self.rows = []  # id -> (successor id, ...), or None

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

    def decode(self, state: int) -> frozenset:
        """The fact set of a state int: the inverse of ``encode``."""
        return frozenset(self.facts[i] for i in _bits(state))

    def _one_bucket(self, state: int) -> Optional[list]:
        """The bucket of the one pivot that holds in ``state``, when exactly
        one holds and no action is condition-free: its entries whose
        precondition holds are then the state's actions, already in name
        order.  None otherwise."""
        pivots = state & self._pivot_mask
        if pivots and not pivots & (pivots - 1) and not self._unconditional:
            return self._buckets[pivots.bit_length() - 1]
        return None

    def applicable_actions(self, state: int) -> list:
        """All actions applicable in the encoded ``state``, sorted by name."""
        bucket = self._one_bucket(state)
        if bucket is not None:
            return [action for pre, _, _, action in bucket
                    if pre & state == pre]
        found = list(self._unconditional)
        pivots = state & self._pivot_mask
        while pivots:
            index = pivots.bit_length() - 1
            pivots ^= 1 << index
            found += [action for pre, _, _, action in self._buckets[index]
                      if pre & state == pre]
        found.sort(key=_name)
        return found

    def state_id(self, state: int) -> int:
        """The dense id of the encoded ``state``, interned on first sight."""
        found = self._ids.get(state)
        if found is None:
            found = self._ids[state] = len(self.states)
            self.states.append(state)
            self.rows.append(None)
        return found

    def expand(self, state_id: int) -> tuple:
        """Row ``state_id`` of the successor table: the ids of the states
        the applicable actions lead to, in action name order.  Computed the
        first time a state is asked for, then read from the table: from the
        one holding bucket's entries where there is one, otherwise from
        ``applicable_actions``."""
        found = self.rows[state_id]
        if found is None:
            ids, states, rows = self._ids, self.states, self.rows
            state = states[state_id]
            bucket = self._one_bucket(state)
            if bucket is None:
                row = [self.state_id(state & ~action.delete_effects
                                     | action.add_effects)
                       for action in self.applicable_actions(state)]
            else:
                row = []
                for pre, keep, add, _ in bucket:
                    if pre & state == pre:
                        succ = state & keep | add
                        sid = ids.get(succ)
                        if sid is None:  # ``state_id``, inline
                            sid = ids[succ] = len(states)
                            states.append(succ)
                            rows.append(None)
                        row.append(sid)
            found = rows[state_id] = tuple(row)
        return found

    def __repr__(self):
        return f"DomainDefinition({len(self.facts)} facts, {len(self.actions)} actions)"

