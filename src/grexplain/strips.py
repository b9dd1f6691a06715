"""Ground STRIPS world model: facts, states, unit-cost actions, progression.

Facts are strings with lexicographic (stable, total) ordering.  A domain
numbers its facts in declaration order, fact i is bit i (``fact_count`` of
them), and a state is a Python ``int`` holding the bits of the facts that
hold (closed world: anything not set is false).  An action is a name plus
three such masks, so applicability is ``pre & s == pre`` and progression is
``s & ~del | add`` (``step``).  The compilers write the bits straight from
the fact order they emit, initial states and goals included; a raw STRIPS
listing turns fact names into masks through ``encode``, the one name-to-bit
reader, and ``decode`` is its inverse; the name-to-bit map is built on the
first ``encode``.  Past the file reader every state and goal is an int: a
recognition problem's initial state and goals, an observation's resulting
state and a planning task.  Fact names are read only where they come from
outside (a raw listing) and written only where they go out to a person (an
error message).

The successor index serves raw STRIPS listings and Sokoban boards (a grid
computes its rows instead: ``grids.GridDomain``).  It files each action
under one precondition fact, its pivot: the lowest bit of its
precondition mask, so a single-bit precondition is its own pivot.
Condition-free actions form a list of their own.  A compiler that knows
an exactly-one group (facts of which every reachable state holds exactly
one) numbers that group first, so an action with a grouped precondition is
filed under the group's value and an expansion tests only the actions of
the one group fact that holds: ``compile_sokoban`` numbers the
``player-*`` facts first.  A raw STRIPS listing keeps its declared order,
and no group is guessed from fact names.  The candidates of a state are
the buckets of the pivots that hold plus the condition-free entries; an
action that applies has its pivot holding, so it is a candidate, and
expansion tests each candidate's full precondition mask.  So the pivot decides only how many
candidates are tested, never the rows: a state that breaks a group still
gets its exact row, in name order.  Where exactly one pivot holds and no
action is condition-free, as in every reachable Sokoban state, the
candidates are that bucket as it stands; otherwise they are merged and
sorted by name.

A domain is built from ``(name, pre, add, del)`` 4-tuples of a name and
three int masks, read once in order; a ``GroundAction`` is one such tuple,
and the compilers pass plain ones (``compile_sokoban`` from a generator).
Each action is kept once, as an entry ``(pre, ~del, add, name)``: a state
``s`` the action applies in leads to ``s & ~del | add``.  Each bucket lists
its entries in name order (sorted bucket by bucket; names are unique, so
that is the order of one global sort), and ``_by_name`` maps a name to its
entry in compile order.  Search reads only entries, so a compile builds no
``GroundAction``: a value is built from the entry in hand the first time it
is read (``applicable_actions`` holds its entries; ``action`` looks the
name up) and is then cached under its name, which ``has_action`` also reads
first.  ``actions`` (all of them, in compile order) is built on first read
from the same cache.  So one name gives one object on every path, and a
plan step ``is`` the ``domain.action`` of its name.  An entry holds only
ints and a string, so the garbage collector stops tracking it at its first
collection; a ``GroundAction``, a tuple subclass, stays tracked for life.

Each domain interns the state ints it meets to dense ids (``state_id``;
``states[id]`` maps back) and keeps a successor table indexed by id: row
``id`` is a tuple of successor ids, one per applicable action, in action
name order.  A row holds no action, but a row and ``applicable_actions`` of
its state read the same candidates through the same test, so they list the
same actions in the same order: the action behind successor k is
``applicable_actions(state)[k]``, which is how ``optimal_plan`` names its
steps.  A tuple of ints holds no reference the garbage collector has to
follow, so the collector stops tracking a row instead of promoting it with
every collection.  A row fills lazily, the first time ``expand`` is asked
for its state, and lives as long as the domain, so the table's size is
bounded by the distinct states searched on that domain.  Search keys its
maps by id, and ids are small consecutive ints that hash apart; a state int
of one bit, such as a grid position ``1 << i``, hashes to one of only 61
values (so a grid's states are its cells from the compile, each one's
id its cell index: ``grids.GridDomain``).

A domain may price goals from every state at once (``distance_tables``);
only a grid does, as every move can be undone (``grids.GridDomain``), and
the recognizer sweeps on every other domain.

A domain is not safe to share between threads: interning reads the length
of ``states`` and then appends to it, which is not atomic.  Nothing in the
package uses threads, and the lazily built action values follow the same
rule.  Actions, states and plans (tuples of actions) are plain values.
"""

from functools import cached_property
from operator import itemgetter
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


_entry_name = itemgetter(3)  # the name field of an index entry


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
    """An ordered fact universe plus a list of ground actions, each a
    ``(name, pre, add, del)`` 4-tuple such as a ``GroundAction``."""

    def __init__(self, facts: Sequence[str], actions: Iterable[tuple]):
        self._facts = facts = tuple(facts)
        if len(set(facts)) != len(facts):
            raise MalformedSpec("duplicate facts in domain universe")

        # Successor index (see the module docstring): entries
        # (pre, ~del, add, name) filed under the lowest precondition bit;
        # condition-free actions are always candidates.
        by_name = self._by_name = {}  # name -> entry, in compile order
        buckets = self._buckets = {}  # pivot fact index -> [entry]
        free = self._unconditional = []  # [entry]
        n = self.fact_count = len(facts)
        for name, pre, add, dele in actions:
            if name in by_name:
                raise MalformedSpec(f"duplicate action name: {name}")
            if (pre | add | dele) >> n:
                raise MalformedSpec(
                    f"action {name}: a mask bit lies outside the "
                    f"{n} declared facts")
            if add & dele:
                raise MalformedSpec(
                    f"action {name}: add and delete effects overlap: "
                    f"{sorted(self.decode(add & dele))}")
            entry = by_name[name] = (pre, ~dele, add, name)
            if pre:
                buckets.setdefault((pre & -pre).bit_length() - 1,
                                   []).append(entry)
            else:
                free.append(entry)
        for bucket in buckets.values():
            bucket.sort(key=_entry_name)
        free.sort(key=_entry_name)
        self._pivot_mask = sum(1 << i for i in buckets)
        self._values = {}  # name -> GroundAction, built on first read
        self._ids = {}  # state int -> id
        self.states = []  # id -> state int
        self.rows = []  # id -> (successor id, ...), or None

    @property
    def facts(self) -> tuple:
        """The fact names, fact i being bit i."""
        return self._facts

    @cached_property
    def actions(self) -> tuple:
        """Every action as a ``GroundAction``, in compile order; built on
        first read."""
        return tuple(map(self.action, self._by_name))

    def action(self, name: str) -> GroundAction:
        """The action called ``name``, built from its entry on first read
        and the same object on every later one."""
        found = self._values.get(name)
        if found is None:
            entry = self._entry(name)
            if entry is None:
                raise MalformedSpec(f"unknown action: {name}")
            found = self._value(entry)
        return found

    def _value(self, entry: tuple) -> GroundAction:
        """The ``GroundAction`` of an index entry, cached under its name."""
        pre, keep, add, name = entry
        found = self._values.get(name)
        if found is None:
            found = self._values[name] = GroundAction(name, pre, add, ~keep)
        return found

    def has_action(self, name: str) -> bool:
        return name in self._values or self._entry(name) is not None

    def _entry(self, name: str) -> Optional[tuple]:
        """The index entry of the action called ``name``, or None."""
        return self._by_name.get(name)

    @cached_property
    def _index(self) -> dict:
        """Fact name -> bit index, built on the first ``encode``."""
        return {fact: i for i, fact in enumerate(self.facts)}

    def encode(self, facts: Iterable[str]) -> int:
        """The state int of a fact set; MalformedSpec names any fact the
        domain does not declare."""
        facts, index = frozenset(facts), self._index
        try:
            return sum(1 << index[f] for f in facts)
        except KeyError:
            raise MalformedSpec(
                f"facts not declared in the domain: "
                f"{sorted(f for f in facts if f not in index)}") from None

    def decode(self, state: int) -> frozenset:
        """The fact set of a state int: the inverse of ``encode``."""
        return frozenset(self.facts[i] for i in _bits(state))

    def _candidates(self, state: int) -> list:
        """The entries of the actions whose pivot holds in ``state`` and of
        the condition-free actions, in action name order.  Where exactly
        one pivot holds and no action is condition-free, this is that
        bucket itself, not a copy."""
        pivots = state & self._pivot_mask
        if pivots and not pivots & (pivots - 1) and not self._unconditional:
            return self._buckets[pivots.bit_length() - 1]
        found = list(self._unconditional)
        for index in _bits(pivots):
            found += self._buckets[index]
        found.sort(key=_entry_name)
        return found

    def applicable_actions(self, state: int) -> list:
        """All actions applicable in the encoded ``state``, sorted by name:
        the actions of row ``state_id(state)``, in the row's order."""
        value = self._value
        return [value(entry) for entry in self._candidates(state)
                if entry[0] & state == entry[0]]

    def drop_hopeless(self, ids: list, goals: Sequence[int]) -> list:
        """The ids of ``ids`` whose states are not known to be hopeless for
        every goal of ``goals``, in order.  A state is hopeless for a goal
        when no action sequence leads from it to a state that meets the
        goal.  No state is known hopeless here, so this is ``ids`` itself;
        ``SokobanDomain`` knows some."""
        return ids

    def distance_tables(self, goals: Sequence[int],
                        limit: int) -> Optional[list]:
        """Each goal's optimal cost from every state, a list per goal
        indexed by state id, or None: no tables here (module docstring)."""
        return None

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
        first time a state is asked for, then read from the table."""
        found = self.rows[state_id]
        if found is None:
            ids, states, rows = self._ids, self.states, self.rows
            state = states[state_id]
            row = []
            for pre, keep, add, _ in self._candidates(state):
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
        return f"{type(self).__name__}({self.fact_count} facts)"
