"""Goal recognition over STRIPS domains with contrastive explanations.

The pipeline: compile a scenario (grid, Sokoban, or raw STRIPS) into a ground
domain, run the mirroring recognizer to get per-prefix goal posteriors, build
the weight-of-evidence explanation list, and answer "why goal g?" / "why not
goal g'?" questions with observational markers and counterfactual actions.
"""

from .bench import TimingReport, run_bench, time_scenario
from .errors import (AllGoalsUnsolvable, BudgetExceeded, EmptyExplanan,
                     GrexError, InvalidObservationChain,
                     KeyMismatch, MalformedSpec, MissingAnnotation,
                     NotAdjacent, NotApplicable, ParseError, UnsolvableGoal,
                     ValidationError, ZeroPosterior, ZeroPrior)
from .explainer import (CompleteExplanan, ExplananEntry, WhyAnswer,
                        WhyNotAnswer, answer_why, answer_why_not,
                        build_explanan, counterfactual_action,
                        rank_observations, select_cf_om, select_om,
                        woe_uniform, woe_with_priors)
from .grids import GridSpec, cell_move_name, compile_grid
from .metrics import eval_cf_agreement, eval_mae
from .planner import (DEFAULT_BUDGET, PlanningTask, PlanResult, Status,
                      first_action, optimal_cost, optimal_costs,
                      optimal_plan)
from .recognizer import (GrProblem, Observation, PosteriorTrace,
                         mirror_posteriors)
from .render import render, render_ascii
from .scenario import (AnnotationFile, ScenarioFile, build_problem,
                       bundled_bench_paths, bundled_scenario_path,
                       load_annotations, load_priors, load_scenario,
                       parse_scenario_file, serialize_scenario)
from .sokoban import SokobanSpec, compile_sokoban
from .strips import (DomainDefinition, GroundAction, Plan, PlanCheck, State,
                     applicable, apply, validate_plan)
from .version import __version__
