"""Goal recognition over STRIPS domains with contrastive explanations.

The pipeline: compile a scenario (grid, Sokoban, or raw STRIPS) into a ground
domain, run the mirroring recognizer to get per-prefix goal posteriors, build
the weight-of-evidence explanation list, and answer "why goal g?" / "why not
goal g'?" questions with observational markers and counterfactual actions.
"""

from .errors import (AllGoalsUnsolvable, BudgetExceeded, EmptyExplanan,
                     GrexError, InvalidObservationChain, KeyMismatch,
                     MalformedSpec, MissingAnnotation, ParseError,
                     UnsolvableGoal, ValidationError, ZeroPosterior, ZeroPrior)
from .explainer import (answer_why, answer_why_not, build_explanan,
                        counterfactual_action, rank_observations,
                        select_cf_om, select_om, woe_uniform, woe_with_priors)
from .grids import GridSpec, compile_grid
from .metrics import eval_cf_agreement, eval_mae
from .planner import (PlanningTask, distance_tables, optimal_cost,
                      optimal_costs, optimal_plan)
from .recognizer import GrProblem, Observation, mirror_posteriors
from .render import render, render_ascii
from .scenario import (bundled_bench_paths, bundled_scenario_path,
                       load_annotations, load_priors, load_scenario)
from .sokoban import SokobanSpec, compile_sokoban
from .strips import DomainDefinition, GroundAction
from .version import __version__
