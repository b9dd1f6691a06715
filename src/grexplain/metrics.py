"""Agreement metrics between model explanations and human ground truth.

Rank agreement is a mean absolute error over annotated observations, divided
by the full observation-sequence length (so sparse annotations still average
over n).  Counterfactual-action agreement is a plain percentage of matching
choices.
"""

from typing import Mapping

from .errors import KeyMismatch, MissingAnnotation


def eval_mae(model_ranks: Mapping[int, int], ground_truth: Mapping[int, int],
             n: int) -> float:
    """(1/n) * sum |ground-truth rank - model rank| over annotated observations."""
    if n <= 0:
        raise ValueError("observation count must be positive")
    total = 0.0
    for obs, gt_rank in ground_truth.items():
        if obs not in model_ranks:
            raise MissingAnnotation(f"observation {obs} is not in the model ranking")
        total += abs(gt_rank - model_ranks[obs])
    return total / n


def eval_cf_agreement(model_actions: Mapping[str, str],
                      ground_truth: Mapping[str, str]) -> float:
    """Percentage of counterfactual goals whose chosen action matches."""
    if set(model_actions) != set(ground_truth):
        raise KeyMismatch(
            f"goal sets differ: model {sorted(model_actions)} vs "
            f"ground truth {sorted(ground_truth)}")
    if not ground_truth:
        raise KeyMismatch("nothing to compare: both mappings are empty")
    agreements = sum(1 for k, v in ground_truth.items() if model_actions[k] == v)
    return agreements / len(ground_truth) * 100.0
