"""Command-line harness.

Verbs: ``recognize`` (posterior trace), ``explain`` (why / why-not answers),
``rank`` (per-observation ranking table), ``bench`` (timing report over a
scenario directory), ``eval`` (agreement against a ground-truth annotation
file).  Exit status is 0 on success, 1 when the reader of stdout closes it
early, 2 on any validation/parse error and 3 when the planner's expansion
budget is exhausted.

One verb table, ``VERBS``, gives each verb's help, options and command.
``build_parser`` builds one parser from it (the top level plus one
subparser per verb) on the first ``main`` call, not at import, and every
later call in the process parses with that same parser.

Every command builds a structured payload first; text output is derived from
it, so ``--format structured`` exposes exactly what the text shows, with
weights at full precision.

Imports at module level are what every request runs: the scenario loader
with PyYAML, the recognizer, the planner and the domains.  The rest loads
with the first call that runs it: ``explainer`` where an explanation list
is built (``explain``, ``rank``, ``eval``), ``render`` with an answer's text
or ``--format ascii-grid``, ``metrics`` in ``eval`` and ``bench`` in
``bench``.
"""

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .errors import BudgetExceeded, GrexError, ValidationError
from .planner import DEFAULT_BUDGET
from .recognizer import mirror_posteriors
from .scenario import load_annotations, load_priors, load_scenario
from .version import __version__


def _entry_dict(problem, entry):
    return {
        "predicted": problem.goal_names[entry.predicted_goal],
        "counterfactual": problem.goal_names[entry.counterfactual_goal],
        "observation": entry.observation_index,
        "action": problem.observations[entry.observation_index - 1].action.name,
        "woe": entry.woe,
    }


def _run(args, explain=True):
    """Load the scenario (and priors), run the recognizer and, with
    ``explain``, build the explanation list.

    Returns (problem, trace, explanan); explanan is None without ``explain``.
    """
    problem = load_scenario(args.scenario)
    priors = load_priors(args.priors, problem) if args.priors else None
    trace = mirror_posteriors(problem, priors=priors, budget=args.budget)
    if not explain:
        return problem, trace, None
    from .explainer import build_explanan
    return problem, trace, build_explanan(trace, priors=priors)


def _map_above(args, problem, text, highlight=None):
    """``text`` under the ASCII map of ``problem`` under ``--format
    ascii-grid``, else ``text`` unchanged."""
    if args.format != "ascii-grid":
        return text
    from .render import render_ascii
    return render_ascii(problem, highlight=highlight) + "\n" + text


def _goal_index(problem, label):
    try:
        return problem.goal_names.index(label)
    except ValueError:
        raise GrexError(
            f"unknown goal {label!r}; choose from {list(problem.goal_names)}"
        ) from None


def cmd_recognize(args):
    problem, trace, _ = _run(args, explain=False)
    payload = {
        "scenario": problem.name or str(args.scenario),
        "goals": list(problem.goal_names),
        "prior": list(trace.prior),
        "posteriors": [list(d) for d in trace.per_prefix],
        "predicted": [problem.goal_names[i] for i in sorted(trace.predicted)],
        "counterfactual": [problem.goal_names[i]
                           for i in sorted(trace.counterfactual)],
    }

    lines = ["prefix  " + "  ".join(f"{g:>8}" for g in payload["goals"])]
    lines.append("    o0  " + "  ".join(f"{p:8.4f}" for p in payload["prior"]))
    for i, dist in enumerate(payload["posteriors"], start=1):
        lines.append(f"    o{i}  " + "  ".join(f"{p:8.4f}" for p in dist))
    lines.append(f"predicted: {', '.join(payload['predicted'])}")
    if payload["counterfactual"]:
        lines.append(f"counterfactual: {', '.join(payload['counterfactual'])}")
    return payload, _map_above(args, problem, "\n".join(lines))


def cmd_explain(args):
    from .explainer import answer_why, answer_why_not

    problem, _, explanan = _run(args)
    goal_filter = None
    if args.goal:
        goal_filter = [_goal_index(problem, args.goal)]

    payload = {
        "scenario": problem.name or str(args.scenario),
        "question": args.question,
        "entries": [_entry_dict(problem, e) for e in explanan.entries],
        "excluded_observations": list(explanan.excluded_observations),
    }

    if args.question == "why":
        answer = answer_why(problem, explanan, goals=goal_filter)
        if goal_filter is not None and not answer.markers:
            raise GrexError(f"goal {args.goal!r} is not a predicted goal; "
                            f"ask --question whynot about it instead")
        payload["markers"] = [_entry_dict(problem, e) for e in answer.markers]
    else:
        answer = answer_why_not(problem, explanan, goals=goal_filter,
                                budget=args.budget)
        if goal_filter is not None and not answer.selections:
            raise GrexError(f"goal {args.goal!r} is not a counterfactual goal; "
                            f"ask --question why about it instead")
        payload["markers"] = [_entry_dict(problem, e) for e in answer.markers]
        payload["counterfactuals"] = [
            {"goal": problem.goal_names[sel.goal],
             "status": sel.status,
             "observation": (sel.marker.observation_index if sel.marker
                             else None),
             "counterfactual_action": sel.action.name if sel.action else None}
            for sel in answer.selections]
    payload["text"] = answer.rendered
    highlight = {e.observation_index for e in answer.markers}

    lines = [payload["text"]]
    for marker in payload["markers"]:
        lines.append(f"  marker o{marker['observation']} ({marker['action']}): "
                     f"WoE {marker['woe']:.2f} for {marker['predicted']} "
                     f"over {marker['counterfactual']}")
    return payload, _map_above(args, problem, "\n".join(lines), highlight)


def cmd_rank(args):
    from .explainer import rank_observations

    problem, _, explanan = _run(args)
    why_ranks, whynot_ranks = rank_observations(explanan)
    payload = {
        "scenario": problem.name or str(args.scenario),
        "why_ranks": {f"o{i}": r for i, r in why_ranks.items()},
        "whynot_ranks": {f"o{i}": r for i, r in whynot_ranks.items()},
    }
    lines = [f"{'obs':>5}  {'WhyQ':>5}  {'WhyNotQ':>8}"]
    for i in sorted(why_ranks, reverse=True):
        lines.append(f"{'o' + str(i):>5}  {why_ranks[i]:>5}  {whynot_ranks[i]:>8}")
    return payload, _map_above(args, problem, "\n".join(lines))


def cmd_bench(args):
    # Imported here: only this verb needs ``statistics`` and its imports.
    from .bench import format_report, run_bench

    root = Path(args.scenario)
    paths = sorted(root.glob("*.yaml")) if root.is_dir() else [root]
    if not (root.exists() and paths):
        raise GrexError(f"no scenario files under {root}")
    reports = run_bench(paths, budget=args.budget)
    payload = {"reports": [
        {"domain": r.domain, "scenarios": r.scenario_count,
         "total_with_explain_s": r.total_with_explain, "total_sd_s": r.total_sd,
         "explain_only_s": r.explain_only, "explain_only_sd_s": r.explain_only_sd,
         "time_increase_pct": r.time_increase_pct,
         "counterfactual_planning_pct": r.counterfactual_planning_pct,
         "failures": list(r.failures)}
        for r in reports]}
    return payload, format_report(reports)


def cmd_eval(args):
    from .explainer import answer_why_not, rank_observations
    from .metrics import eval_cf_agreement, eval_mae

    annotations = load_annotations(args.annotations)
    problem, _, explanan = _run(args)
    n = len(problem.observations)
    if n == 0:
        raise ValidationError("eval needs a scenario with at least one "
                              "observation")
    why_ranks, whynot_ranks = rank_observations(explanan)

    payload = {
        "scenario": annotations.scenario or problem.name or None,
        "why_mae": eval_mae(why_ranks, annotations.why_ranks, n),
        "whynot_mae": eval_mae(whynot_ranks, annotations.whynot_ranks, n),
    }

    annotated = annotations.counterfactual_actions
    if annotated:
        goals = {label: _goal_index(problem, label) for label in annotated}
        for action_name in annotated.values():
            if not problem.domain.has_action(action_name):
                raise GrexError(f"annotation names unknown action {action_name!r}")
        chosen = answer_why_not(problem, explanan,
                                budget=args.budget).counterfactual_actions
        model = {label: chosen[g].name if g in chosen else ""
                 for label, g in goals.items()}
        payload["cf_agreement_pct"] = eval_cf_agreement(model, annotated)

    lines = [f"why MAE:     {payload['why_mae']:.3f}",
             f"why-not MAE: {payload['whynot_mae']:.3f}"]
    if "cf_agreement_pct" in payload:
        lines.append(f"CF agreement: {payload['cf_agreement_pct']:.1f}%")
    return payload, "\n".join(lines)


_WITH_MAP = ("text", "structured", "ascii-grid")

# verb: (help, --scenario help, takes --priors, --format choices,
#        extra options as (flag, add_argument keywords), command)
VERBS = {
    "recognize": ("print the posterior trace", "scenario file", True,
                  _WITH_MAP, (), cmd_recognize),
    "explain": ("answer a why or why-not question", "scenario file", True,
                _WITH_MAP,
                (("--question", {"choices": ["why", "whynot"],
                                 "required": True}),
                 ("--goal", {"help": "restrict the answer to one goal label"})),
                cmd_explain),
    "rank": ("rank observations for both questions", "scenario file", True,
             _WITH_MAP, (), cmd_rank),
    "bench": ("time recognition vs explanation",
              "scenario file or directory of scenario files", False,
              ("text", "structured"), (), cmd_bench),
    "eval": ("compare against ground-truth annotations", "scenario file", True,
             ("text", "structured"),
             (("--annotations",
               {"required": True,
                "help": "YAML annotation file with ranks and actions"}),),
             cmd_eval),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser: the top level plus one subparser per verb of ``VERBS``.
    Built once per process and shared, so callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="grexplain",
        description="Goal recognition with contrastive why / why-not explanations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, row in VERBS.items():
        help_, scenario_help, priors, formats, extra, fn = row
        verb_parser = sub.add_parser(verb, help=help_)
        add = verb_parser.add_argument
        add("--scenario", required=True, help=scenario_help)
        if priors:
            add("--priors", help="YAML file of per-goal prior weights")
        add("--budget", type=int, default=DEFAULT_BUDGET,
            help="planner node-expansion cap (at least 1)")
        add("--format", choices=formats, default="text")
        add("--out", help="write output to this file instead of stdout")
        for flag, options in extra:
            add(flag, **options)
        verb_parser.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.budget < 1:
            raise ValidationError(f"--budget must be at least 1, got {args.budget}")
        payload, text = args.fn(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GrexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    output = (json.dumps(payload, indent=2) if args.format == "structured"
              else text)
    if args.out:
        try:
            Path(args.out).write_text(output + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: --out {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        try:
            print(output)
            sys.stdout.flush()  # a closed reader raises here, not at exit
        except UnicodeEncodeError as exc:
            print(f"error: stdout cannot encode the output as {exc.encoding}; "
                  f"--out FILE writes it as UTF-8", file=sys.stderr)
            return 2
        except BrokenPipeError:
            # the reader left: send what is still buffered to devnull, so
            # the flush at exit does not raise again, and exit 1 quietly
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
