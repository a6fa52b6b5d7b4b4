"""Command-line interface.

Subcommands: construct, verify, metrics, guess, search, reproduce.  JSON is
the machine format; pass --human where available for a readable rendering.
Exit codes: 0 success, 1 verification failure, 2 usage or validation error,
141 when the reader closes standard output early (as `| head` does).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .judge import InvalidProofError, classify_privacy, uniform_best_guess, verify_proof
from .metrics import (
    equal_piles_factor,
    equal_piles_factor_limit,
    minimax_distribution,
    rational_to_json,
    revealing_metrics,
)
from .model import (
    ProblemInstance,
    ValidationError,
    coins_from_json,
    plan_from_json,
    plan_to_json,
    simulate_transcript,
    transcript_for_plan,
)
from .reference import SEARCH_BOUND_NOTE, run_reference_checks
from .search import search_discreet
from .strategies import BUILDERS, ConstructionError, build_equal_piles

STRATEGY_NAMES = sorted(BUILDERS)


def _bundle_from_args(args):
    instance = ProblemInstance(args.t, args.f, args.d)
    if args.strategy == "equal-piles":
        if args.a is None:
            raise ConstructionError("equal-piles requires --a (the number of piles)")
        return build_equal_piles(instance, args.a)
    if args.a is not None:
        raise ConstructionError(f"--a only applies to equal-piles, not {args.strategy}")
    return BUILDERS[args.strategy](instance)


def _evaluate(instance, transcript, placement, name, cases=None):
    """Full judge + metrics pass; returns (report dict, exit code)."""
    verdict = verify_proof(instance, transcript, placement)
    report = {
        "strategy": name,
        "instance": instance.to_json(),
        "plan": plan_to_json(transcript.plan),
        "placement": sorted(placement),
        "outcomes": [o.value for o in transcript.outcomes],
        "verdict": verdict.to_json(),
        "privacy": None,
        "metrics": None,
        "guess": None,
    }
    if not verdict.valid:
        return report, 1
    # on the same transcript object, so the judge reuses the verdict's work
    report["privacy"] = classify_privacy(instance, transcript).to_json()
    metrics = revealing_metrics(instance.t, instance.f, verdict.consistent_count_f)
    report["metrics"] = metrics.to_json()
    coin, prob = uniform_best_guess(instance.t, instance.f, transcript)
    guess = {"uniform": {"coin": coin, "prob": rational_to_json(prob, display=False)}}
    if cases is not None:  # the lawyer's minimax placement over the cases
        distribution, value = minimax_distribution(cases)
        guess["minimax"] = {
            "distribution": [rational_to_json(p, display=False) for p in distribution],
            "value": rational_to_json(value, display=False),
        }
    report["guess"] = guess
    return report, 0


def _frac(data) -> str:
    return str(Fraction(data["num"], data["den"]))


def _render_report(report) -> str:
    inst = report["instance"]
    lines = [
        f"strategy   {report['strategy']} on t={inst['t']} f={inst['f']} d={inst['d']}",
    ]
    verdict = report["verdict"]
    lines.append(
        f"proof      {'valid' if verdict['valid'] else 'INVALID'} "
        f"(consistent size-{inst['f']} sets: {verdict['consistent_f']}, "
        f"size-{inst['d']}: {verdict['consistent_d']})"
    )
    if report["privacy"] is not None:
        privacy = report["privacy"]
        if privacy["discreet"]:
            lines.append("privacy    discreet: no coin's identity is determined")
        else:
            lines.append(
                f"privacy    indiscreet: {len(privacy['revealed_real'])} coins shown real, "
                f"{len(privacy['revealed_fake'])} shown fake"
            )
        metrics = report["metrics"]
        lines.append(
            f"revealing  X = {metrics['old']}/{metrics['new']} ~ {metrics['X']['approx']}, "
            f"R = {_frac(metrics['R'])} ~ {metrics['R']['approx']}"
        )
        uniform = report["guess"]["uniform"]
        lines.append(
            f"guess      coin {uniform['coin']} succeeds with probability "
            f"{_frac(uniform['prob'])} (uniform over survivors)"
        )
        if "minimax" in report["guess"]:
            minimax = report["guess"]["minimax"]
            mix = ", ".join(_frac(p) for p in minimax["distribution"])
            lines.append(
                f"minimax    value {_frac(minimax['value'])} at case distribution ({mix})"
            )
    return "\n".join(lines)


def _emit(args, report) -> None:
    if getattr(args, "human", False):
        print(_render_report(report))
    else:
        print(json.dumps(report, indent=2))


def _cmd_construct(args) -> int:
    bundle = _bundle_from_args(args)
    report, code = _evaluate(
        bundle.instance, bundle.transcript(), bundle.placement, bundle.name, bundle.cases
    )
    _emit(args, report)
    return code


def _cmd_verify(args) -> int:
    if args.file == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.file) as handle:
            data = json.load(handle)
    plan = plan_from_json(data)
    try:
        values = data["placement"]
    except KeyError as exc:
        raise ValidationError(f"malformed placement in JSON: {exc}") from exc
    placement = coins_from_json(values, "placement")
    instance = ProblemInstance(plan.t, args.f, args.d)
    if "outcomes" in data:
        transcript = transcript_for_plan(plan, data)
    else:
        transcript = simulate_transcript(plan, placement)
    report, code = _evaluate(instance, transcript, placement, "user-plan")
    _emit(args, report)
    return code


def _cmd_metrics(args) -> int:
    if (args.new is None) == (args.a is None):
        raise ValidationError("metrics needs exactly one of --new or --a")
    if args.new is not None:
        metrics = revealing_metrics(args.t, args.f, args.new)
        print(json.dumps(metrics.to_json(), indent=2))
        return 0
    factor = equal_piles_factor(args.t, args.f, args.a)
    out = {
        "t": args.t,
        "f": args.f,
        "a": args.a,
        "factor": rational_to_json(factor),
        "limit": equal_piles_factor_limit(args.f, args.a),
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_guess(args) -> int:
    bundle = _bundle_from_args(args)
    report, code = _evaluate(
        bundle.instance, bundle.transcript(), bundle.placement, bundle.name, bundle.cases
    )
    if code:
        raise InvalidProofError(f"{bundle.name} did not produce a valid proof")
    out = {"strategy": report["strategy"], "instance": report["instance"], **report["guess"]}
    print(json.dumps(out, indent=2))
    return 0


def _cmd_search(args) -> int:
    witness = search_discreet(args.t, args.f, args.d, args.max_weighings)
    if witness is None:
        print(json.dumps({"exhausted": True, "bound": args.max_weighings}, indent=2))
    else:
        out = witness.to_json()
        out["bound"] = args.max_weighings
        print(json.dumps(out, indent=2))
    return 0


def _cmd_reproduce(args) -> int:
    rows = run_reference_checks(args.filter)
    if not rows:
        print(f"error: no reference checks match filter {args.filter!r}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([row.to_json() for row in rows], indent=2))
    else:
        width_id = max(len(r.id) for r in rows)
        width_exp = max(len(r.expected) for r in rows)
        for row in rows:
            status = "ok" if row.passed else "FAIL"
            print(
                f"{row.id:<{width_id}}  {row.expected:<{width_exp}}  "
                f"{row.computed:<{width_exp}}  {status}"
            )
        failed = [r for r in rows if not r.passed]
        print()
        if failed:
            print(f"{len(failed)} of {len(rows)} checks FAILED")
        else:
            print(f"all {len(rows)} checks passed")
        print(f"note: {SEARCH_BOUND_NOTE}")
    return 0 if all(r.passed for r in rows) else 1


def _add_instance_arguments(parser, with_a=False):
    parser.add_argument("--t", type=int, required=True, help="total number of coins")
    parser.add_argument("--f", type=int, required=True, help="actual number of fakes")
    parser.add_argument("--d", type=int, required=True, help="fake count to disprove")
    if with_a:
        parser.add_argument(
            "--a", type=int, default=None, help="pile count for equal-piles"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discreet-weighings",
        description="Construct, verify, and measure privacy-preserving coin weighings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named strategy and judge it")
    p.add_argument("strategy", choices=STRATEGY_NAMES)
    _add_instance_arguments(p, with_a=True)
    p.add_argument("--human", action="store_true", help="render a readable report")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="judge a user-supplied plan and placement")
    p.add_argument("file", help="JSON file with t, weighings, placement (- for stdin)")
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--human", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("metrics", help="revealing factor and coefficient")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--new", type=int, default=None, help="surviving possibilities")
    p.add_argument("--a", type=int, default=None, help="equal-piles count instead of --new")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("guess", help="single-coin guessing analysis for a strategy")
    p.add_argument("strategy", choices=STRATEGY_NAMES)
    _add_instance_arguments(p, with_a=True)
    p.set_defaults(handler=_cmd_guess)

    p = sub.add_parser("search", help="bounded search for a discreet strategy")
    _add_instance_arguments(p)
    p.add_argument("--max-weighings", type=int, required=True)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("reproduce", help="recompute all golden reference numbers")
    p.add_argument("--json", action="store_true", help="machine-readable rows")
    p.add_argument("--filter", default=None, help="only run matching checks")
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except BrokenPipeError:
        # The reader closed the pipe early, as `| head` does.  Point stdout
        # at devnull so the interpreter's final flush does not fail again,
        # and exit the way a process killed by SIGPIPE would.
        try:
            stdout = sys.stdout.fileno()
        except OSError:
            return 141  # not a file descriptor, so no flush can reach the pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout)
        os.close(devnull)
        return 141
    except InvalidProofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # ValidationError and ConstructionError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
