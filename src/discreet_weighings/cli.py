"""Command-line interface.

Subcommands: construct, verify, metrics, guess, search, reproduce.  JSON is
the machine format; pass --human where available for a readable rendering.
Exit codes: 0 success, 1 verification failure, 2 usage or validation error
(or a request that runs out of memory), 141 when the reader closes standard
output early (as `| head` does).

Each subcommand handler maps parsed arguments to `(output, exit code)` and
writes nothing.  `main` writes stdout once: a `str` output (the `reproduce`
table) as it is, a report under `--human` through `_render_report`, and any
other output as indented JSON.  Integers are printed exactly whatever their
size: `main` lifts the interpreter's int-to-str digit limit only while it
renders that output, never while a handler reads its input.

`_evaluate` turns every proof into its report, and `reproduce` reads its
rows off the reports that `construct` prints.  Each call builds its parsers
afresh: a call whose first argument names a subcommand builds that
subcommand's parser alone, and the parser with all six (`_parser`) is built
only for help and usage errors (`_parse`).
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


def _bundle_report(bundle):
    """`_evaluate` of a built strategy's proof."""
    return _evaluate(
        bundle.instance, bundle.transcript(), bundle.placement, bundle.name, bundle.cases
    )


def _frac(data) -> Fraction:
    return Fraction(data["num"], data["den"])


def _approx(data) -> str:
    """` ~ approx`, or nothing for a value beyond a float's range."""
    return "" if data["approx"] is None else f" ~ {data['approx']}"


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
            f"revealing  X = {metrics['old']}/{metrics['new']}{_approx(metrics['X'])}, "
            f"R = {_frac(metrics['R'])}{_approx(metrics['R'])}"
        )
        uniform = report["guess"]["uniform"]
        lines.append(
            f"guess      coin {uniform['coin']} succeeds with probability "
            f"{_frac(uniform['prob'])} (uniform over survivors)"
        )
        if "minimax" in report["guess"]:
            minimax = report["guess"]["minimax"]
            mix = ", ".join(str(_frac(p)) for p in minimax["distribution"])
            lines.append(
                f"minimax    value {_frac(minimax['value'])} at case distribution ({mix})"
            )
    return "\n".join(lines)


def _cmd_construct(args):
    return _bundle_report(_bundle_from_args(args))


def _cmd_verify(args):
    try:
        if args.file == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.file, encoding="utf-8") as handle:  # JSON is UTF-8
                data = json.load(handle)
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise ValidationError("malformed JSON: nested too deeply to read") from exc
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
    return _evaluate(instance, transcript, placement, "user-plan")


def _cmd_metrics(args):
    if (args.new is None) == (args.a is None):
        raise ValidationError("metrics needs exactly one of --new or --a")
    if args.new is not None:
        return revealing_metrics(args.t, args.f, args.new).to_json(), 0
    factor = equal_piles_factor(args.t, args.f, args.a)
    try:
        limit = equal_piles_factor_limit(args.f, args.a)
    except OverflowError:  # beyond a float's range, as `rational_to_json` has it
        limit = None
    out = {
        "t": args.t,
        "f": args.f,
        "a": args.a,
        "factor": rational_to_json(factor),
        "limit": limit,
    }
    return out, 0


def _cmd_guess(args):
    report, code = _bundle_report(_bundle_from_args(args))
    if code:
        raise InvalidProofError(f"{report['strategy']} did not produce a valid proof")
    return {"strategy": report["strategy"], "instance": report["instance"], **report["guess"]}, 0


def _cmd_search(args):
    witness = search_discreet(args.t, args.f, args.d, args.max_weighings)
    out = {"exhausted": True} if witness is None else witness.to_json()
    out["bound"] = args.max_weighings
    return out, 0


def _cmd_reproduce(args):
    # imported here, since `reference` builds its rows from this module's reports
    from .reference import SEARCH_BOUND_NOTE, run_reference_checks

    rows = run_reference_checks(args.filter)
    if not rows:
        raise ValidationError(f"no reference checks match filter {args.filter!r}")
    failed = [r for r in rows if not r.passed]
    code = 1 if failed else 0
    if args.json:
        return [row.to_json() for row in rows], code
    width_id = max(len(r.id) for r in rows)
    width_exp = max(len(r.expected) for r in rows)
    lines = [
        f"{row.id:<{width_id}}  {row.expected:<{width_exp}}  "
        f"{row.computed:<{width_exp}}  {'ok' if row.passed else 'FAIL'}"
        for row in rows
    ]
    lines.append("")
    if failed:
        lines.append(f"{len(failed)} of {len(rows)} checks FAILED")
    else:
        lines.append(f"all {len(rows)} checks passed")
    lines.append(f"note: {SEARCH_BOUND_NOTE}")
    return "\n".join(lines), code


def _add_instance_arguments(parser, with_a=False):
    parser.add_argument("--t", type=int, required=True, help="total number of coins")
    parser.add_argument("--f", type=int, required=True, help="actual number of fakes")
    parser.add_argument("--d", type=int, required=True, help="fake count to disprove")
    if with_a:
        parser.add_argument(
            "--a", type=int, default=None, help="pile count for equal-piles"
        )


def _construct_arguments(parser):
    _guess_arguments(parser)
    parser.add_argument("--human", action="store_true", help="render a readable report")


def _verify_arguments(parser):
    parser.add_argument("file", help="JSON file with t, weighings, placement (- for stdin)")
    parser.add_argument("--f", type=int, required=True)
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--human", action="store_true")


def _metrics_arguments(parser):
    parser.add_argument("--t", type=int, required=True)
    parser.add_argument("--f", type=int, required=True)
    parser.add_argument("--new", type=int, default=None, help="surviving possibilities")
    parser.add_argument("--a", type=int, default=None, help="equal-piles count instead of --new")


def _guess_arguments(parser):
    parser.add_argument("strategy", choices=STRATEGY_NAMES)
    _add_instance_arguments(parser, with_a=True)


def _search_arguments(parser):
    _add_instance_arguments(parser)
    parser.add_argument("--max-weighings", type=int, required=True)


def _reproduce_arguments(parser):
    parser.add_argument("--json", action="store_true", help="machine-readable rows")
    parser.add_argument("--filter", default=None, help="only run matching checks")


# (name, help, handler, argument adder) of each subcommand, in usage order
_SUBCOMMANDS = (
    ("construct", "build a named strategy and judge it", _cmd_construct, _construct_arguments),
    ("verify", "judge a user-supplied plan and placement", _cmd_verify, _verify_arguments),
    ("metrics", "revealing factor and coefficient", _cmd_metrics, _metrics_arguments),
    ("guess", "single-coin guessing analysis for a strategy", _cmd_guess, _guess_arguments),
    ("search", "bounded search for a discreet strategy", _cmd_search, _search_arguments),
    ("reproduce", "recompute all golden reference numbers", _cmd_reproduce, _reproduce_arguments),
)


def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, with all six subcommands and their arguments."""
    parser = argparse.ArgumentParser(
        prog="discreet-weighings",
        description="Construct, verify, and measure privacy-preserving coin weighings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, add_arguments in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(handler=handler)
    return parser


def _parse(argv) -> argparse.Namespace:
    """`_parser().parse_args(argv)`, building one parser where that suffices.

    `_parser` hands the subcommand that argv's first argument names everything
    after the name, and reports only what that subcommand's parser leaves
    over.  So such an argv is parsed by the subcommand's own parser, filled as
    `add_parser` fills it, and `_parser` is built only to report a leftover
    argument.  Any other argv (none, an option first, `--`, a typo) goes to
    `_parser`.  The namespace then lacks `command`, which no handler reads."""
    named = [entry for entry in _SUBCOMMANDS if argv and entry[0] == argv[0]]
    if not named:
        return _parser().parse_args(argv)
    name, _help, handler, add_arguments = named[0]
    parser = argparse.ArgumentParser(prog=f"discreet-weighings {name}")
    add_arguments(parser)
    parser.set_defaults(handler=handler)
    args, extras = parser.parse_known_args(argv[1:])
    if extras:
        _parser().error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        output, code = args.handler(args)
        # exact integers of any size: lift the int-to-str digit limit while
        # the output is rendered, not while a handler reads its input
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            if isinstance(output, str):
                text = output
            elif getattr(args, "human", False):
                text = _render_report(output)
            else:
                text = json.dumps(output, indent=2)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        print(text)
        return code
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
    except MemoryError:
        print("error: out of memory: the request is too large for this machine", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
