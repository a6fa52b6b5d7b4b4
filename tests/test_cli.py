import argparse
import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import discreet_weighings
from discreet_weighings import (
    BUILDERS,
    CaseStructure,
    Outcome,
    Pile,
    ProblemInstance,
    StrategyBundle,
    Weighing,
    WeighingPlan,
    build_leftover_reveal,
    build_official,
)
from discreet_weighings import cli, judge
from discreet_weighings.cli import main
from discreet_weighings.model import plan_to_json
from discreet_weighings.reference import run_reference_checks

PACKAGE = Path(discreet_weighings.__file__).resolve().parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strategy_file(tmp_path, bundle, tamper=False):
    data = plan_to_json(bundle.plan)
    data["placement"] = sorted(bundle.placement)
    if tamper:
        transcript = bundle.transcript()
        outcomes = [o.value for o in transcript.outcomes]
        flip = outcomes.index("balanced")
        outcomes[flip] = "left_lighter"
        data["outcomes"] = outcomes
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_construct_official(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "official", "--t", "80", "--f", "3", "--d", "2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == {"valid": True, "consistent_f": 8000, "consistent_d": 0}
    assert report["privacy"]["discreet"] is True
    assert report["metrics"]["X"] == {"num": 1027, "den": 100, "approx": 10.27}
    assert report["guess"]["uniform"]["prob"] == {"num": 1, "den": 20}
    assert report["guess"]["minimax"]["value"] == {"num": 1, "den": 20}


def test_construct_equal_piles(capsys):
    code, out, _ = run_cli(
        capsys,
        "construct", "equal-piles", "--t", "80", "--f", "2", "--d", "1", "--a", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["metrics"]["X"]["approx"] == 1.975
    assert report["metrics"]["new"] == 1600


def test_construct_precondition_failure_names_condition(capsys):
    code, out, err = run_cli(
        capsys, "construct", "official", "--t", "81", "--f", "3", "--d", "2"
    )
    assert code == 2
    assert "divisible by 8" in err


def test_construct_requires_a_for_equal_piles(capsys):
    code, _, err = run_cli(
        capsys, "construct", "equal-piles", "--t", "80", "--f", "2", "--d", "1"
    )
    assert code == 2
    assert "--a" in err
    # and no other strategy takes it
    code, out, err = run_cli(
        capsys, "construct", "official", "--t", "80", "--f", "3", "--d", "2", "--a", "2"
    )
    assert (code, out, err) == (2, "", "error: --a only applies to equal-piles, not official\n")


def test_construct_output_is_deterministic(capsys):
    args = ("construct", "triple-case", "--t", "80", "--f", "3", "--d", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_report_round_trips_through_json(capsys):
    _, out, _ = run_cli(
        capsys, "construct", "official", "--t", "80", "--f", "3", "--d", "2"
    )
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report


def test_construct_human_rendering(capsys):
    code, out, _ = run_cli(
        capsys,
        "construct", "official", "--t", "80", "--f", "3", "--d", "2", "--human",
    )
    assert code == 0
    assert "discreet" in out and "10.27" in out
    # an indiscreet proof names how many coins it shows real and fake
    code, out, _ = run_cli(
        capsys,
        "construct", "leftover-reveal", "--t", "80", "--f", "3", "--d", "2", "--human",
    )
    assert code == 0
    assert "privacy    indiscreet: 3 coins shown real, 0 shown fake\n" in out


def test_verify_official_fixture(tmp_path, capsys):
    bundle = build_official(ProblemInstance(80, 3, 2))
    path = strategy_file(tmp_path, bundle)
    code, out, _ = run_cli(capsys, "verify", path, "--f", "3", "--d", "2")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["valid"] is True
    assert report["privacy"]["discreet"] is True


def test_verify_leftover_fixture_reveals_three(tmp_path, capsys):
    bundle = build_leftover_reveal(ProblemInstance(80, 3, 2))
    path = strategy_file(tmp_path, bundle)
    code, out, _ = run_cli(capsys, "verify", path, "--f", "3", "--d", "2")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["valid"] is True
    assert report["privacy"]["discreet"] is False
    assert len(report["privacy"]["revealed_real"]) == 3


def test_verify_tampered_outcome_fails(tmp_path, capsys):
    bundle = build_official(ProblemInstance(80, 3, 2))
    path = strategy_file(tmp_path, bundle, tamper=True)
    code, out, _ = run_cli(capsys, "verify", path, "--f", "3", "--d", "2")
    assert code == 1
    assert json.loads(out)["verdict"]["valid"] is False


def test_verify_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    bundle = build_official(ProblemInstance(80, 3, 2))
    data = plan_to_json(bundle.plan)
    data["placement"] = sorted(bundle.placement)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    code, out, _ = run_cli(capsys, "verify", "-", "--f", "3", "--d", "2")
    assert code == 0
    assert json.loads(out)["verdict"]["valid"] is True


def test_verify_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"t": 4, "weighings": [{"left": [0]}]}))
    code, _, err = run_cli(capsys, "verify", str(path), "--f", "2", "--d", "1")
    assert code == 2
    assert "error" in err


def test_verify_reports_an_invalid_plan_before_stray_placement_coins(tmp_path, capsys):
    # both the plan and the placement are wrong; the plan's problems come
    # first, all of them, in weighing order
    data = {
        "t": 4,
        "weighings": [{"left": [0, 1], "right": [1, 2]}, {"left": [0], "right": [5, 2]}],
        "placement": [0, 7],
    }
    expected = (
        "error: weighing 0: pans overlap on coins [1]; "
        "weighing 1: unequal pans: 1 vs 2 coins; weighing 1: coins [5] outside 0..3\n"
    )
    path = tmp_path / "bad.json"
    for outcomes in (None, ["balanced", "left_lighter"]):
        if outcomes is not None:
            data["outcomes"] = outcomes
        path.write_text(json.dumps(data))
        assert run_cli(capsys, "verify", str(path), "--f", "2", "--d", "1") == (2, "", expected)
    data["weighings"] = [{"left": [0], "right": [1]}]
    data["outcomes"] = ["balanced"]
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "verify", str(path), "--f", "2", "--d", "1") == (
        2,
        "",
        "error: placement coins [7] outside 0..3\n",
    )


# a plan with overlapping pans, each row adding one more fault
BAD_PLAN = {"t": 4, "weighings": [{"left": [0, 1], "right": [1, 2]}], "placement": [0, 2]}
BAD_PLAN_ERROR = "weighing 0: pans overlap on coins [1]"


@pytest.mark.parametrize("with_outcomes", [False, True], ids=["simulated", "outcomes"])
@pytest.mark.parametrize(
    "changes, f, message",
    [
        ({}, "2", BAD_PLAN_ERROR),
        ({"t": 0, "weighings": []}, "2", "coin count must be positive, got t=0"),
        ({"outcomes": ["balanced", "balanced"]}, "2", BAD_PLAN_ERROR),
        ({"placement": None}, "2", BAD_PLAN_ERROR),
        ({"placement": [0.5, 2]}, "2", BAD_PLAN_ERROR),
        ({}, "4", BAD_PLAN_ERROR),
        ({"placement": [0, 1, 2]}, "2", BAD_PLAN_ERROR),
    ],
    ids=["plan-alone", "no-coins", "outcome-count", "no-placement", "non-integer-placement",
         "f-not-below-t", "placement-size"],
)
def test_verify_reports_a_bad_plan_before_any_other_fault(
    capsys, monkeypatch, changes, f, message, with_outcomes
):
    # the plan is refused as soon as it is read, whether its outcomes are
    # given or simulated; "outcomes" in `changes` is dropped with the rest
    data = {**BAD_PLAN, "outcomes": ["balanced"], **changes}
    if not with_outcomes:
        del data["outcomes"]
    data = {key: value for key, value in data.items() if value is not None}
    assert verify_json(capsys, monkeypatch, data, f=f) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"t": 4, "weighings": [{"left": [0], "right": [1]}], "placement": [0, 2], "t": 5}', "t"),
        ('{"t": 4, "weighings": [{"left": [0], "right": [1], "left": [2]}], "placement": [0, 2]}',
         "left"),
        ('{"t": 4, "weighings": [{"left": [0], "right": [1]}], "placement": [0, 2], '
         '"placement": [1, 3]}', "placement"),
    ],
    ids=["top-level", "weighing", "placement"],
)
@pytest.mark.parametrize("source", ["stdin", "file"])
def test_verify_refuses_a_repeated_key(tmp_path, capsys, monkeypatch, source, text, key):
    # json keeps the last of a repeated key, so a document would silently be
    # judged at t = 5 or with left pan [2]
    import io

    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        path = "-"
    else:
        path = tmp_path / "repeated.json"
        path.write_text(text, encoding="utf-8")
    assert run_cli(capsys, "verify", str(path), "--f", "2", "--d", "1") == (
        2,
        "",
        f'error: malformed JSON: key "{key}" given more than once\n',
    )


def test_verify_names_stray_placement_coins_with_or_without_outcomes(capsys, monkeypatch):
    # without outcomes the placement is simulated, with them it is judged;
    # both refuse coin 5 of 4 in the same words
    data = {"t": 4, "weighings": [{"left": [0], "right": [1]}], "placement": [0, 5]}
    expected = (2, "", "error: placement coins [5] outside 0..3\n")
    assert verify_json(capsys, monkeypatch, data) == expected
    assert verify_json(capsys, monkeypatch, {**data, "outcomes": ["left_lighter"]}) == expected


def test_verify_names_a_negative_pan_coin_once(capsys, monkeypatch):
    # -1 is a JSON integer, so it is outside 0..t-1 and not also invalid
    data = {"t": 4, "weighings": [{"left": [-1], "right": [0]}], "placement": [0, 1]}
    expected = (2, "", "error: weighing 0: coins [-1] outside 0..3\n")
    assert verify_json(capsys, monkeypatch, data) == expected
    assert verify_json(capsys, monkeypatch, {**data, "outcomes": ["balanced"]}) == expected


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "malformed plan JSON: the document must be a JSON object"),
        ({"t": 4, "weighings": "ab"}, "malformed plan JSON: weighings must be a list"),
        ({"t": 4, "weighings": ["ab"]}, "malformed plan JSON: weighing 0 must be a JSON object"),
        (
            {"t": 4, "weighings": [{"left": [0], "right": [1]}], "placement": [0, 2],
             "outcomes": "b"},
            "malformed transcript JSON: outcomes must be a list",
        ),
        (
            {"t": 4, "weighings": [{"left": [0], "right": [1]}], "placement": [0, 2],
             "outcomes": ["b"]},
            'malformed transcript JSON: outcome 0 must be one of "balanced", '
            '"left_lighter", "right_lighter", got "b"',
        ),
        (
            {"t": 4, "weighings": [{"left": [0], "right": [1]}], "placement": [0, 2],
             "outcomes": ["balanced", "balanced"]},
            "2 outcomes for 1 weighings",
        ),
        (
            {"t": 4, "weighings": [{"left": [0], "right": [1]}], "placement": "3"},
            "placement must be a list of coin indices",
        ),
        (
            {"t": 4, "weighings": [{"left": [0], "right": [1]}]},
            "malformed placement in JSON: 'placement'",
        ),
    ],
    ids=["document", "weighings", "weighing", "outcomes", "outcome", "outcome-count",
         "placement", "no-placement"],
)
def test_verify_names_the_field_of_a_wrong_json_shape(capsys, monkeypatch, data, message):
    assert verify_json(capsys, monkeypatch, data) == (2, "", f"error: {message}\n")


def test_construct_triple_case_with_ten_fakes(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "triple-case", "--t", "401", "--f", "10", "--d", "9"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["valid"] and report["privacy"]["discreet"]


def test_metrics_subcommand(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--t", "80", "--f", "3", "--new", "8000")
    assert code == 0
    data = json.loads(out)
    assert data["X"]["approx"] == 10.27

    code, out, _ = run_cli(capsys, "metrics", "--t", "80", "--f", "4", "--a", "2")
    assert code == 0
    data = json.loads(out)
    from fractions import Fraction

    assert Fraction(data["factor"]["num"], data["factor"]["den"]) == Fraction(
        1581580, 608400
    )
    assert abs(data["limit"] - 8 / 3) < 1e-12

    code, _, err = run_cli(capsys, "metrics", "--t", "80", "--f", "3")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--t", "-80", "--f", "3", "--new", "1"), "need t >= 0, got t=-80"),
        (("--t", "80", "--f", "-3", "--new", "1"), "need f >= 0, got f=-3"),
        (("--t", "80", "--f", "-4", "--a", "2"), "need f >= 0, got f=-4"),
        (("--t", "-80", "--f", "4", "--a", "2"), "need t >= 0, got t=-80"),
    ],
    ids=["new-t", "new-f", "a-f", "a-t"],
)
def test_metrics_names_a_negative_count(capsys, argv, message):
    # math.comb and math.factorial would name their own arguments: n, k
    assert run_cli(capsys, "metrics", *argv) == (2, "", f"error: {message}\n")


def test_metrics_beyond_a_floats_range_print_a_null_approx(capsys):
    from math import comb

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    code, out, err = run_cli(capsys, "metrics", "--t", "1100", "--f", "550", "--new", "1")
    assert (code, err) == (0, "")
    data = json.loads(out, parse_constant=refuse)
    assert data["X"] == {"num": comb(1100, 550), "den": 1, "approx": None}
    assert data["R"]["approx"] == 1.0
    # the equal-piles factor C(4000, 2000) / 6^1000 and its limit as t grows
    code, out, err = run_cli(capsys, "metrics", "--t", "4000", "--f", "2000", "--a", "1000")
    assert (code, err) == (0, "")
    data = json.loads(out, parse_constant=refuse)
    assert data["factor"]["approx"] is None and data["limit"] is None
    assert data["factor"]["num"] * 6**1000 == comb(4000, 2000) * data["factor"]["den"]


def test_human_rendering_leaves_out_an_approx_beyond_a_floats_range(capsys):
    _, out, _ = run_cli(capsys, "construct", "official", "--t", "80", "--f", "3", "--d", "2")
    report = json.loads(out)
    report["metrics"]["X"]["approx"] = None
    r = report["metrics"]["R"]
    assert (
        f"\nrevealing  X = 82160/8000, R = {r['num']}/{r['den']} ~ {r['approx']}\n"
        in cli._render_report(report)
    )


def test_guess_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "guess", "triple-case", "--t", "80", "--f", "3", "--d", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["minimax"]["value"] == {"num": 1, "den": 25}
    assert data["minimax"]["distribution"][0] == {"num": 23, "den": 25}
    assert data["uniform"]["prob"] == {"num": 96, "den": 2209}  # 576/13254 reduced


@pytest.mark.parametrize("command,strategy", [("construct", "official"), ("guess", "triple-case")])
def test_one_request_judges_its_transcript_once(capsys, monkeypatch, command, strategy):
    # the verdict, privacy report and guess share one partition and one
    # routing of the plan
    calls = {"partition_by_itinerary": 0, "_route": 0}

    def counted(name):
        original = getattr(judge, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        return call

    for name in calls:
        monkeypatch.setattr(judge, name, counted(name))
    code, _, _ = run_cli(capsys, command, strategy, "--t", "80", "--f", "3", "--d", "2")
    assert code == 0
    weighings = len(BUILDERS[strategy](ProblemInstance(80, 3, 2)).plan.weighings)
    assert calls == {"partition_by_itinerary": 1, "_route": weighings}


def test_search_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--t", "5", "--f", "2", "--d", "1", "--max-weighings", "3"
    )
    assert code == 0
    assert json.loads(out) == {"exhausted": True, "bound": 3}

    code, out, _ = run_cli(
        capsys, "search", "--t", "9", "--f", "2", "--d", "1", "--max-weighings", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == 2
    assert data["expected_discreet"] is True
    assert sum(len(w["left"]) for w in data["plan"]["weighings"]) >= 2


def test_search_bound_error(capsys):
    code, _, err = run_cli(
        capsys, "search", "--t", "13", "--f", "2", "--d", "1", "--max-weighings", "3"
    )
    assert code == 2


def test_reproduce_json_and_filter(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--json", "--filter", "equal-piles")
    assert code == 0
    rows = json.loads(out)
    assert rows and all(row["pass"] for row in rows)
    assert all("equal-piles" in row["id"] for row in rows)

    code, out, _ = run_cli(capsys, "reproduce", "--json", "--filter", "metrics")
    assert code == 0
    rows = json.loads(out)
    assert rows and all(row["group"] == "metrics" for row in rows)


def test_reproduce_states_the_bound_of_each_two_against_none_row(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--json", "--filter", "impossible-2-0")
    assert code == 0
    rows = json.loads(out)
    assert [(row["id"], row["description"][:35], row["pass"]) for row in rows] == [
        ("impossible-2-0", "no discreet plan within 3 weighings", True),
        ("impossible-2-0-w4", "no discreet plan within 4 weighings", True),
    ]


def test_reproduce_human_filter(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--filter", "triple")
    assert code == 0
    assert "all" in out and "passed" in out


def test_reproduce_reports_a_failed_row_and_exits_1(capsys, monkeypatch):
    from discreet_weighings import reference

    rows = reference.run_reference_checks()
    failing = [dataclasses.replace(rows[0], passed=False), *rows[1:]]
    monkeypatch.setattr(reference, "run_reference_checks", lambda name_filter=None: failing)
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 1
    assert f"\n1 of {len(rows)} checks FAILED\n" in out
    assert out.splitlines()[0].endswith("  FAIL")


def test_reproduce_reads_the_reports_construct_prints(monkeypatch):
    # one more survivor in the report moves exactly the rows that show its
    # exact factor or coefficient; a second judging pipeline would not see it
    revealing_metrics = cli.revealing_metrics
    monkeypatch.setattr(
        cli, "revealing_metrics", lambda t, f, new: revealing_metrics(t, f, new + 1)
    )
    failed = [row.id for row in run_reference_checks() if not row.passed]
    assert failed == [
        "equal-piles-2-factor",
        "equal-piles-2-coefficient",
        "official-factor",
        "reference-factor",
    ]


def test_each_module_imports_on_its_own():
    # one fresh interpreter per module, so that an import cycle (cli and
    # reference import each other) fails whichever module is loaded first
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", f"import discreet_weighings.{module}"],
            stderr=subprocess.PIPE, env=env,
        )
        for module in modules
    ]
    for module, proc in zip(modules, procs):
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, (module, err.decode())
    assert {"cli", "reference"} <= set(modules)


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
def test_reproduce_unmatched_filter(capsys, mode):
    code, out, err = run_cli(capsys, "reproduce", *mode, "--filter", "no-such-check")
    assert code == 2 and not out
    assert err == "error: no reference checks match filter 'no-such-check'\n"


def test_usage_error_exit_code(capsys):
    assert main(["construct"]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "--threads", "1", "reproduce")
    assert code == 2 and not out
    code, out, err = run_cli(capsys, "reproduce", "--threads", "1")
    assert code == 2 and not out
    assert "unrecognized arguments: --threads 1" in err
    code, out, err = run_cli(
        capsys, "search", "--t", "4", "--f", "2", "--d", "1", "--max-weighings", "1",
        "--mode", "exhaustive",
    )
    assert code == 2 and not out
    assert "unrecognized arguments: --mode exhaustive" in err


def _every_command_parser():
    """The parser with every subcommand and all their arguments, built the
    plain way: what a parser built for one argv must match on that argv."""
    parser = argparse.ArgumentParser(
        prog="discreet-weighings",
        description="Construct, verify, and measure privacy-preserving coin weighings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, add_arguments in cli._SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(handler=handler)
    return parser


COMMANDS = ["construct", "verify", "metrics", "guess", "search", "reproduce"]
SEARCH = ["search", "--t", "4", "--f", "2", "--d", "1", "--max-weighings", "1"]
# a valid argv of each subcommand, in the order of COMMANDS, with
# abbreviated options and an option=value
VALID = [
    ["construct", "official", "--t", "80", "--f", "3", "--d", "2", "--hu"],
    ["verify", "-", "--f=3", "--d", "2", "--human"],
    ["metrics", "--t", "80", "--f", "3", "--ne", "100"],
    ["guess", "equal-piles", "--d", "1", "--t=8", "--f", "2", "--a", "2"],
    ["search", "--t=8", "--f", "2", "--d", "1", "--max", "1"],
    ["reproduce", "--json", "--fil", "triple"],
]


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_a_handler_returns_its_output_and_exit_code_and_writes_nothing(
    argv, capsys, monkeypatch
):
    import io

    bundle = build_official(ProblemInstance(80, 3, 2))
    plan = {**plan_to_json(bundle.plan), "placement": sorted(bundle.placement)}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(plan)))
    args = cli._parse(argv)
    output, code = args.handler(args)
    assert code == 0 and isinstance(output, (dict, list, str))
    assert capsys.readouterr() == ("", "")


def _stub_handlers(monkeypatch):
    """Replace every subcommand's handler by one that records the arguments
    it receives, less `command` and `handler`; returns the record."""
    received = []

    def record(args):
        received.append(_parsed(args))
        return "", 0

    stubbed = tuple(entry[:2] + (record,) + entry[3:] for entry in cli._SUBCOMMANDS)
    monkeypatch.setattr(cli, "_SUBCOMMANDS", stubbed)
    return received


def _parsed(args):
    return {k: v for k, v in vars(args).items() if k not in ("command", "handler")}


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["--he"],
        ["-hsearch"],
        ["-h", "search"],
        ["--help", "verify"],
        ["frobnicate"],
        ["--"],
        *([command, "-h"] for command in COMMANDS),
        *([command] for command in COMMANDS),
        *([command, "--"] for command in COMMANDS),
        ["search", "--t", "4", "--f", "2", "--max-weighings", "1"],
        ["search", "--t", "x", "--f", "2", "--d", "1", "--max-weighings", "1"],
        [*SEARCH, "stray"],
        [*SEARCH, "stray", "--bogus"],
        [*SEARCH, "--"],
        [*SEARCH, "--", "x"],
        ["search", "--", *SEARCH[1:]],
        ["--x", *SEARCH],
        ["--", *SEARCH],
        ["search", "search"],
        ["SEARCH"],
        ["reproduce", "--threads", "1"],
        ["reproduce", "-h", "--bogus"],
        ["reproduce", "--bogus", "-h"],
        # an unknown option before the command: argparse still dispatches
        # to reproduce, which must read --json before the error is shown
        ["--threads", "reproduce", "--json"],
        ["verify", "a", "b", "--f", "1", "--d", "0"],
        ["metrics", "--t", "80", "--f", "3", "--ne", "100", "extra"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_parsing_matches_a_parser_with_every_argument(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    received = _stub_handlers(monkeypatch)
    try:
        expected = _every_command_parser().parse_args(argv)
    except SystemExit as stop:
        code = 0 if stop.code in (0, None) else 2
        printed = capsys.readouterr()
        assert run_cli(capsys, *argv) == (code, printed.out, printed.err)
        assert not received
    else:  # valid on this Python, such as `reproduce --`
        assert run_cli(capsys, *argv) == (0, "\n", "")
        assert received == [_parsed(expected)]


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_a_named_subcommand_gets_the_arguments_a_parser_with_every_argument_reads(
    argv, capsys, monkeypatch
):
    expected = _parsed(_every_command_parser().parse_args(argv))
    received = _stub_handlers(monkeypatch)
    assert run_cli(capsys, *argv) == (0, "\n", "")
    assert received == [expected]


def test_main_builds_one_parser_unless_the_six_subcommands_are_needed(capsys, monkeypatch):
    _stub_handlers(monkeypatch)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(parser, *args, **kwargs):
        built.append(parser)
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    # the named subcommand's parser alone; the top-level parser and six
    # subparsers for help and usage errors; and both for a leftover argument
    cases = [(argv, 1) for argv in VALID]
    cases += [(argv, 7) for argv in ([], ["-h"], ["frobnicate"], ["--"], ["--x", *SEARCH])]
    cases += [([*SEARCH, "stray"], 8)]
    for argv, count in cases:
        built.clear()
        main(argv)
        capsys.readouterr()
        assert len(built) == count, argv


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    argv = ["metrics", "--t", "80", "--f", "3", "--new", "100"]
    expected = run_cli(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["discreet-weighings", *argv])
    assert main() == expected[0] == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == expected[1:]


def verify_json(capsys, monkeypatch, data, f="2", d="1"):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    return run_cli(capsys, "verify", "-", "--f", f, "--d", d)


PAIR_PLAN = {"t": 8, "weighings": [{"left": [0, 1], "right": [2, 3]}]}


def test_verify_rejects_fractional_placement(capsys, monkeypatch):
    # int() would read these as coins {0, 5}
    code, out, err = verify_json(capsys, monkeypatch, {**PAIR_PLAN, "placement": [0.9, 5.5]})
    assert code == 2 and not out
    assert "must be an integer, got 0.9" in err


def test_verify_rejects_bool_and_string_placement(capsys, monkeypatch):
    # int() would read these as coins {1, 3}
    code, out, err = verify_json(capsys, monkeypatch, {**PAIR_PLAN, "placement": [True, "3"]})
    assert code == 2 and not out
    assert "must be an integer, got true" in err


def test_verify_rejects_bool_and_string_pans(capsys, monkeypatch):
    # int() would read both pans as coin 1 and report overlapping pans
    data = {"t": 4, "weighings": [{"left": [True], "right": ["1"]}], "placement": [0, 2]}
    code, out, err = verify_json(capsys, monkeypatch, data)
    assert code == 2 and not out
    assert "must be an integer, got true" in err
    assert "overlap" not in err


def test_verify_rejects_repeated_pan_coins(capsys, monkeypatch):
    # a set would read both pans as one coin: a 1 v 1 weighing
    data = {"t": 4, "weighings": [{"left": [0, 0], "right": [1, 1]}], "placement": [0, 2]}
    code, out, err = verify_json(capsys, monkeypatch, data)
    assert code == 2 and not out
    assert err == "error: malformed plan JSON: weighing 0 left pan lists coins [0] more than once\n"


def test_verify_rejects_repeated_placement_coins(capsys, monkeypatch):
    # a set would accept [2, 2, 3] as the two fakes [2, 3]
    data = {**PAIR_PLAN, "placement": [2, 2, 3]}
    code, out, err = verify_json(capsys, monkeypatch, data)
    assert code == 2 and not out
    assert err == "error: placement lists coins [2] more than once\n"


def test_verify_plan_with_more_classes_than_the_recursion_limit(capsys, monkeypatch):
    # about 1500 itinerary classes; the judge used to recurse once per class
    rng = random.Random(1)
    weighings = []
    for _ in range(12):
        coins = rng.sample(range(1500), 1000)
        weighings.append({"left": sorted(coins[:500]), "right": sorted(coins[500:])})
    data = {"t": 1500, "weighings": weighings, "placement": [0, 1]}
    code, out, err = verify_json(capsys, monkeypatch, data)
    assert code == 0 and not err
    report = json.loads(out)
    assert report["verdict"] == {"valid": True, "consistent_f": 4, "consistent_d": 0}
    assert report["privacy"]["discreet"] is False


# json's decoder recurses once per nesting level, so 100,000 levels pass any
# interpreter's limit: one text is not JSON, the other a valid plan with one
# deeply nested extra key
DEEP_NOT_JSON = "[" * 100000
DEEP_EXTRA_KEY = (
    '{"t": 8, "weighings": [{"left": [0, 1], "right": [2, 3]}], "placement": [0, 2], "extra": '
    + "[" * 100000 + "]" * 100000 + "}"
)


@pytest.mark.parametrize("text", [DEEP_NOT_JSON, DEEP_EXTRA_KEY], ids=["not-json", "extra-key"])
@pytest.mark.parametrize("source", ["stdin", "file"])
def test_verify_refuses_json_nested_too_deeply(tmp_path, capsys, monkeypatch, source, text):
    import io

    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        path = "-"
    else:
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path), "--f", "2", "--d", "1")
    assert (code, out) == (2, "")
    assert err == "error: malformed JSON: nested too deeply to read\n"


def test_guess_on_an_invalid_proof_exits_1(capsys, monkeypatch):
    # every builtin strategy proves its count, so a broken one stands in:
    # one coin against another leaves a single fake off the scale possible
    def broken(instance):
        return StrategyBundle(
            name="broken",
            instance=instance,
            plan=WeighingPlan(instance.t, (Weighing(frozenset({0}), frozenset({1})),)),
            cases=CaseStructure(((Pile(frozenset({0})), Pile(frozenset({1}))),)),
            expected_outcomes=(Outcome.BALANCED,),
            expected_discreet=False,
            revealed_expected=frozenset(),
        )

    monkeypatch.setitem(cli.BUILDERS, "official", broken)
    code, out, err = run_cli(capsys, "guess", "official", "--t", "8", "--f", "2", "--d", "1")
    assert (code, out, err) == (1, "", "error: broken did not produce a valid proof\n")


def test_construct_large_instance_counts_without_listing(capsys):
    # C(30, 3)^2 = 16,483,600 surviving sets: far too many to list
    code, out, _ = run_cli(
        capsys,
        "construct", "equal-piles", "--t", "60", "--f", "6", "--d", "5", "--a", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["consistent_f"] == 16483600
    assert report["guess"]["uniform"] == {"coin": 0, "prob": {"num": 1, "den": 10}}


def test_closed_stdout_exits_quietly():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "discreet_weighings.cli",
         "construct", "official", "--t", "80", "--f", "3", "--d", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before anything is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_verify_reads_its_file_as_utf8_whatever_the_locale(tmp_path):
    # JSON is UTF-8, so the file is opened with that encoding, not the
    # locale's: no EncodingWarning, which -W error would turn into exit 1
    plan = strategy_file(tmp_path, build_official(ProblemInstance(80, 3, 2)))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "discreet_weighings.cli", "verify", plan, "--f", "3", "--d", "2"],
        capture_output=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout)["verdict"]["valid"] is True


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int-to-str digit limit, set for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(limit)


def test_exact_integers_of_any_size_are_printed(capsys, default_digit_limit):
    from math import comb

    # C(15000, 7500) has 4,514 digits, past the limit, which `main` lifts
    # for its output and then restores
    code, out, err = run_cli(capsys, "metrics", "--t", "15000", "--f", "7500", "--new", "1")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == default_digit_limit
    sys.set_int_max_str_digits(0)  # to read the output back
    data = json.loads(out)
    assert data["X"]["num"] == comb(15000, 7500) and data["X"]["den"] == 1


def test_verify_still_refuses_a_t_past_the_digit_limit(capsys, monkeypatch, default_digit_limit):
    import io

    # the limit is lifted only for the output, so the input's t of 4,400
    # digits is refused as it is read; were it read, the judge would build a
    # set of t coins, so the plan parser stands guard instead
    def unreachable(data):
        raise AssertionError("a t past the digit limit was read")

    monkeypatch.setattr(cli, "plan_from_json", unreachable)
    plan = ', "weighings": [{"left": [0], "right": [1]}], "placement": [0, 1]}'
    text = '{"t": ' + "1" * 4400 + plan
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "verify", "-", "--f", "2", "--d", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: Exceeds the limit") and err.count("\n") == 1


def test_running_out_of_memory_exits_2_with_one_error_line(capsys, monkeypatch):
    def exhausted(instance):
        raise MemoryError

    monkeypatch.setitem(cli.BUILDERS, "official", exhausted)
    code, out, err = run_cli(capsys, "construct", "official", "--t", "80", "--f", "3", "--d", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory") and err.count("\n") == 1
