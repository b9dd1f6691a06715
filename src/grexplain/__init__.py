"""Goal recognition over STRIPS domains with contrastive explanations.

The pipeline: compile a scenario (grid, Sokoban, or raw STRIPS) into a ground
domain, run the mirroring recognizer to get per-prefix goal posteriors, build
the weight-of-evidence explanation list, and answer "why goal g?" / "why not
goal g'?" questions with observational markers and counterfactual actions.

The package root is lazy (PEP 562): ``_HOME`` maps each public name to the
module that defines it, and that module is imported on the name's first
read, so ``from grexplain import X`` works while ``import grexplain.cli``
loads only the modules the CLI imports itself (README, "Start-up").
``render`` names both a module and its function; the root keeps the
function, so loading the ``render`` module does not rebind it.
"""

import sys
from types import ModuleType

_HOME = {name: module for module, names in (
    ("errors", "AllGoalsUnsolvable BudgetExceeded EmptyExplanan GrexError "
               "InvalidObservationChain KeyMismatch MalformedSpec "
               "MissingAnnotation ParseError UnsolvableGoal ValidationError "
               "ZeroPosterior ZeroPrior"),
    ("explainer", "answer_why answer_why_not build_explanan "
                  "counterfactual_action rank_observations select_cf_om "
                  "select_om woe_uniform woe_with_priors"),
    ("grids", "GridSpec compile_grid"),
    ("metrics", "eval_cf_agreement eval_mae"),
    ("planner", "PlanningTask optimal_cost optimal_costs optimal_plan"),
    ("recognizer", "GrProblem Observation mirror_posteriors"),
    ("render", "render render_ascii"),
    ("scenario", "bundled_bench_paths bundled_scenario_path load_annotations "
                 "load_priors load_scenario"),
    ("sokoban", "SokobanSpec compile_sokoban"),
    ("strips", "DomainDefinition GroundAction"),
    ("version", "__version__"),
) for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_HOME[name]}"
    __import__(module)
    return getattr(sys.modules[module], name)


def __dir__():
    return sorted({*globals(), *__all__})


class _Root(ModuleType):
    def __setattr__(self, name, value):
        # The import system binds each loaded submodule on its package; a
        # public name read through ``__getattr__`` keeps its object.
        if not (name in _HOME and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Root
