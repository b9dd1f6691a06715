"""Exception hierarchy shared across the library.

Everything raised on purpose derives from GrexError so the CLI can map
failures onto exit codes without enumerating modules.  MalformedSpec is a
ValidationError: a board, domain or problem that breaks its invariants is
invalid input wherever it is built, so it reaches the CLI unwrapped.
"""


class GrexError(Exception):
    """Base class for all library errors."""


class BudgetExceeded(GrexError):
    """The planner ran past its node-expansion budget.  ``search`` names the
    search that did (empty for a bare planner call), and ``prefix`` is the
    observation prefix after which its start state holds, or None."""

    def __init__(self, budget: int, search: str = "", prefix=None):
        super().__init__(f"expansion budget of {budget} nodes exceeded"
                         + (f" {search}" if search else ""))
        self.budget = budget
        self.prefix = prefix


class InvalidObservationChain(GrexError):
    """An observation sequence does not progress validly from the initial state."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"observation {index}: {reason}")
        self.index = index
        self.reason = reason


class AllGoalsUnsolvable(GrexError):
    """Every goal hypothesis received score zero at some observation prefix.
    ``held`` names the goals still reachable there when each of them held
    in the initial state, so scored 0 on its base cost of 0."""

    def __init__(self, prefix: int, held: tuple = ()):
        super().__init__(
            f"every goal hypothesis reachable after observation {prefix} "
            f"({', '.join(held)}) held in the initial state, so each scores 0"
            if held else
            f"no goal hypothesis is reachable after observation {prefix}")
        self.prefix = prefix


class ZeroPosterior(GrexError):
    """A weight-of-evidence input posterior was zero (log-ratio undefined)."""


class ZeroPrior(GrexError):
    """A weight-of-evidence input prior was zero (log-ratio undefined)."""


class EmptyExplanan(GrexError):
    """Marker selection was asked to operate on an explanation list with no entries."""


class UnsolvableGoal(GrexError):
    """A counterfactual goal cannot be reached from the marker's preceding state."""


class ParseError(GrexError):
    """A scenario or annotation file could not be parsed."""


class ValidationError(GrexError):
    """A parsed file is structurally fine but semantically invalid."""


class MalformedSpec(ValidationError):
    """A grid/Sokoban/STRIPS scenario specification violates its invariants."""


class MissingAnnotation(GrexError):
    """A ground-truth annotation refers to an observation the model did not rank."""


class KeyMismatch(GrexError):
    """Counterfactual-action mappings being compared cover different goals."""
