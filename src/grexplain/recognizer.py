"""Online goal recognition by plan mirroring.

Each goal hypothesis is scored after every observation prefix by the ratio

    optimal cost(initial -> goal) / (prefix cost + optimal cost(state -> goal))

so a goal the observations keep optimal scores 1 and goals the agent walks
away from decay toward 0.  Every action costs 1, so the prefix cost after i
observations is i and each cost is a plan length.  The costs come as one
row per prefix 0..n: each goal's cost from the initial state, then from
each observed state.  One rule picks their source: the domain's goal
costs when row 0 holds a cost, else the sweeps.

* Goal costs (``DomainDefinition.goal_costs``): the domain prices every
  goal from the n + 1 states at once, or returns None.  A grid floods the
  board from each goal's cell, one whole-board layer at a time
  (``grids.GridDomain``), as every move can be undone, and reads each
  state's cell off the layers.  They are asked for only when there is an
  observation, and a grid gives up for a goal that is not one cell, and
  for one whose cell reaches more than ``budget`` cells.
* Sweeps: row 0 is one sweep from the initial state over every goal; from
  each observed state, one over the goals reachable from the initial state
  that have lost their certificate (below).

A goal's certificate is the parent chain of its first hit in the last
sweep that priced it (``planner`` module docstring).  Observation i moves
the agent one unit step, from s(i - 1) to s(i).  If the sweep from
s(i - 1) first met goal g at depth d and that hit's chain passes through
s(i), then dist(s(i), g) = d - 1 exactly, and the rest of the chain is a
shortest path from s(i).  So g keeps its certificate, and needs no search,
for as long as the agent follows the chain; the goals that leave theirs are
swept together from s(i), and that sweep gives them new chains.  A goal met
at depth 0 has no chain, so no certificate.  This is the exact form of
recomputing only when the observation leaves the current plan (Vered and
Kaminka 2017).  A goal that a sweep from s(i) finds unreachable stays
unreachable from every later observed state, as each is reachable from
s(i), so it is priced None and never swept again.

Both sources give the same costs.  BudgetExceeded is raised where the
sweeps the recognizer actually runs raise it, and names the observation
prefix that sweep was pricing (0 for the initial state).  Each of those
sweeps starts from the same state as one of the n + 1 plain sweeps (the
initial state over every goal, each observed state over the reachable
goals) but looks for a subset of its goals, so by the one-way rule across
goals (``planner`` module docstring) it dequeues no more.  A grid's goal
costs read the budget as a limit on the cells a goal's flood reaches, so
they never raise.  Let R be the number of cells reachable from the
initial state.  Every move can be undone, so a goal whose flood reaches
the start reached exactly those R cells, so R <= budget; and no sweep
from a reachable cell dequeues more than R, so no plain sweep runs out
there either.  When row 0 holds no cost, or the domain gives up, the
sweeps run as on any other domain.  Either way, a budget that the n + 1
plain sweeps fit never exits 3.

Scores are normalized into a posterior over the goal set; unreachable
goals get probability 0.  Goals within ``DEFAULT_TIE_TOLERANCE`` of the
final maximum are co-predicted.
"""

from typing import NamedTuple, Optional, Sequence

from .errors import (AllGoalsUnsolvable, BudgetExceeded,
                     InvalidObservationChain, MalformedSpec)
from .planner import DEFAULT_BUDGET, sweep
from .strips import DomainDefinition, GroundAction, step

DEFAULT_TIE_TOLERANCE = 1e-9


class Observation(NamedTuple):
    """One observed step: the action taken and the state int it produced."""

    action: GroundAction
    resulting_state: int


class _GrProblemFields(NamedTuple):
    domain: DomainDefinition
    initial: int
    goals: tuple
    observations: tuple
    goal_names: tuple
    board: Optional[tuple]
    name: str


class GrProblem(_GrProblemFields):
    """A goal-recognition problem: domain, initial state, goal hypotheses,
    and the observed action/state sequence.

    States and goals are int masks over ``domain.facts``; a bit past them
    is a MalformedSpec naming the initial state or the goal.

    ``board`` is the ``GridSpec`` or ``SokobanSpec`` the domain was compiled
    from, or None for any other domain; only rendering reads it (board
    phrases and the ASCII map).  ``name`` is the scenario's name.  Neither
    affects recognition or the explanations.
    """

    __slots__ = ()

    def __new__(cls, domain, initial, goals, observations=(), goal_names=(),
                board=None, name=""):
        goals, observations = tuple(goals), tuple(observations)
        names = goal_labels(goal_names, len(goals))
        declared = domain.fact_count
        labels = ["initial state", *(f"goal {n}" for n in names)]
        for label, mask in zip(labels, (initial, *goals)):
            if mask >> declared:
                raise MalformedSpec(f"{label}: a mask bit lies outside the "
                                    f"{declared} declared facts")
        validate_observations(domain, initial, observations)
        return super().__new__(cls, domain, initial, goals, observations,
                               names, board, name)

    def state_before(self, index: int) -> int:
        """The state immediately before 1-based observation ``index``."""
        if index < 1 or index > len(self.observations):
            raise IndexError(f"observation index {index} out of range")
        if index == 1:
            return self.initial
        return self.observations[index - 2].resulting_state


def goal_labels(goal_names: Sequence[str], count: int) -> tuple:
    """The names of ``count`` goals: ``goal_names``, or g1, g2, ... when it
    is empty; MalformedSpec unless they name the goals one to one."""
    if not count:
        raise MalformedSpec("a recognition problem needs at least one goal")
    names = tuple(goal_names) or tuple(f"g{i + 1}" for i in range(count))
    if len(names) != count:
        raise MalformedSpec("goal_names must match the number of goals")
    if len(set(names)) != len(names):
        raise MalformedSpec(f"goal_names must be distinct: {list(names)}")
    return names


def validate_observations(domain: DomainDefinition, initial: int,
                          observations: Sequence[Observation]) -> None:
    """Check an observation chain progresses validly from the initial state."""
    state = initial
    for i, obs in enumerate(observations, start=1):
        if not domain.has_action(obs.action.name):
            raise InvalidObservationChain(i, f"unknown action {obs.action.name}")
        state = step(state, obs.action)
        if state is None:
            raise InvalidObservationChain(
                i, f"action {obs.action.name} is not applicable")
        if state != obs.resulting_state:
            raise InvalidObservationChain(
                i, f"recorded state does not match applying {obs.action.name}")


class PosteriorTrace(NamedTuple):
    """Per-prefix posterior distributions plus the predicted/counterfactual
    goal split taken from the final prefix."""

    prior: tuple
    per_prefix: tuple
    predicted: frozenset
    counterfactual: frozenset

    @property
    def final(self) -> tuple:
        return self.per_prefix[-1] if self.per_prefix else self.prior

    @property
    def observation_count(self) -> int:
        return len(self.per_prefix)


def _normalize(scores, prefix: int) -> tuple:
    total = sum(scores)
    if total == 0:
        raise AllGoalsUnsolvable(prefix)
    return tuple(s / total for s in scores)


def _suffix_costs(domain: DomainDefinition, state: int, goals: Sequence[int],
                  chains: list, budget: int, prefix: int) -> list:
    """Cost to each goal from ``state``, the state after observation
    ``prefix``.  A goal whose certificate in ``chains`` passes next through
    ``state`` reads it off the chain; a goal whose chain is None was
    unreachable from an earlier observed state, so it is from this one too;
    the others are priced by one sweep, which replaces their certificates,
    or sets None for a goal it finds unreachable (module docstring).  A
    BudgetExceeded names ``prefix``."""
    sid = domain.state_id(state)
    costs, left = [None] * len(goals), []
    for k, chain in enumerate(chains):
        if chain is None:
            continue
        if chain and chain[-1] == sid:
            chain.pop()
            costs[k] = len(chain)
        else:
            left.append(k)
    if left:
        try:
            found = sweep(domain, state, [goals[k] for k in left], budget)
        except BudgetExceeded:
            raise BudgetExceeded(
                budget, f"pricing the goals after observation {prefix}",
                prefix) from None
        for k, cost, chain in zip(left, found.costs, found.chains()):
            costs[k], chains[k] = cost, None if cost is None else chain
    return costs


def _cost_rows(problem: GrProblem, budget: int):
    """Each goal's cost (None where unreachable) from the initial state,
    then from each observed state in turn: from the domain's goal costs
    when row 0 holds one, else from the sweeps, each run only as its row
    is read (module docstring)."""
    domain, goals = problem.domain, problem.goals
    states = [problem.initial, *(obs.resulting_state
                                 for obs in problem.observations)]
    rows = problem.observations and domain.goal_costs(goals, states, budget)
    if rows and any(cost is not None for cost in rows[0]):
        yield from rows
        return
    chains = [[] for _ in goals]
    for prefix, state in enumerate(states):
        yield _suffix_costs(domain, state, goals, chains, budget, prefix)


def mirror_posteriors(problem: GrProblem, priors: Optional[Sequence[float]] = None,
                      budget: int = DEFAULT_BUDGET) -> PosteriorTrace:
    """Run the mirroring recognizer over the full observation sequence.

    ``priors`` optionally weights goals before normalization (defaults to
    uniform, in which case the weighting step is skipped entirely so exact
    geometric ties stay exact).
    """
    if priors is not None and len(priors) != len(problem.goals):
        raise MalformedSpec("priors must assign one weight per goal")

    rows = _cost_rows(problem, budget)
    base_costs = next(rows)

    def distribution(scores, prefix):
        if priors is not None:
            scores = [p * s for p, s in zip(priors, scores)]
        return _normalize(scores, prefix)

    prior_scores = [0.0 if c is None else 1.0 for c in base_costs]
    prior_dist = distribution(prior_scores, 0)

    per_prefix = []
    for i, suffixes in enumerate(rows, start=1):
        scores = [0.0 if s is None else b / (i + s)
                  for b, s in zip(base_costs, suffixes)]
        try:
            per_prefix.append(distribution(scores, i))
        except AllGoalsUnsolvable:
            held = [j for j, s in enumerate(suffixes) if s is not None]
            if held and not any(base_costs[j] for j in held):
                raise AllGoalsUnsolvable(
                    i, tuple(problem.goal_names[j] for j in held)) from None
            raise

    final = per_prefix[-1] if per_prefix else prior_dist
    predicted, counterfactual = split_goals(final)
    return PosteriorTrace(
        prior=prior_dist,
        per_prefix=tuple(per_prefix),
        predicted=predicted,
        counterfactual=counterfactual,
    )


def split_goals(distribution):
    """Split goals into (predicted, counterfactual) index sets.

    All goals within ``DEFAULT_TIE_TOLERANCE`` of the distribution's maximum
    are co-predicted; exact geometric ties must land in the same set.
    """
    top = max(distribution)
    predicted = frozenset(i for i, p in enumerate(distribution)
                          if p >= top - DEFAULT_TIE_TOLERANCE)
    counterfactual = frozenset(range(len(distribution))) - predicted
    return predicted, counterfactual
