"""The benchmark's workloads: a fixed request list each, how to issue every
request in process, and the answer it must give.

Expected answers never come from the library.  They are the paper's
published numbers, closed forms of the constructions, or brute force from
`oracle.py`.  Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

import oracle

WORKLOADS = ("paper-80", "count-deep", "search-bounded", "verify-mixed")

VERIFY_T = (12, 15, 18, 20, 23, 26, 29, 32, 34, 37, 40)  # 28 strata x 11 = 308 requests
SEARCH_BOUND = 3


@dataclass(frozen=True)
class Request:
    label: str
    kind: str  # a key of RUNNERS
    args: tuple  # CLI argv for "cli", positional arguments otherwise
    stdin: str | None = None
    expected: dict | None = None  # None: brute-forced from `plan` by the oracle
    plan: tuple | None = None  # (t, f, d, weighings, placement, outcomes)


# --- issuing requests -------------------------------------------------------
#
# Runners look every library name up at call time, so that the traced run
# sees the wrappers the tracer installs.


def _run_cli(lib, request):
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if request.stdin is not None:
        sys.stdin = io.StringIO(request.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(request.args))
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def _run_triple_pipeline(lib, request):
    t, f, d = request.args
    instance = lib.ProblemInstance(t, f, d)
    bundle = lib.build_triple_case(instance)
    transcript = bundle.transcript()
    verdict = lib.verify_proof(instance, transcript, bundle.placement)
    privacy = lib.classify_privacy(instance, transcript)
    metrics = lib.revealing_metrics(t, f, verdict.consistent_count_f)
    minimax = lib.minimax_distribution(bundle.cases)
    return verdict, privacy, metrics, minimax


def _run_search(lib, request):
    return lib.search_discreet(*request.args)


def _run_odd_t(lib, request):
    return lib.check_odd_t_itineraries(*request.args)


RUNNERS = {
    "cli": _run_cli,
    "triple-pipeline": _run_triple_pipeline,
    "search": _run_search,
    "odd-t": _run_odd_t,
}


# --- reading answers --------------------------------------------------------


def _fraction(data) -> Fraction:
    return Fraction(data["num"], data["den"])


def _read_report(code, report) -> dict:
    """The judged fields of a `construct` or `guess` report."""
    seen = {"exit": code}
    if "verdict" in report:
        verdict = report["verdict"]
        seen.update(
            valid=verdict["valid"],
            consistent_f=verdict["consistent_f"],
            consistent_d=verdict["consistent_d"],
        )
    if report.get("privacy"):
        privacy = report["privacy"]
        seen.update(
            discreet=privacy["discreet"],
            revealed_real=len(privacy["revealed_real"]),
            revealed_fake=len(privacy["revealed_fake"]),
        )
    if report.get("metrics"):
        metrics = report["metrics"]
        seen.update(
            old=metrics["old"],
            new=metrics["new"],
            X=_fraction(metrics["X"]),
            R=_fraction(metrics["R"]),
        )
    guess = report.get("guess", report)
    if guess and "uniform" in guess:
        seen["guess_prob"] = _fraction(guess["uniform"]["prob"])
    if guess and "minimax" in guess:
        minimax = guess["minimax"]
        seen["minimax"] = (
            tuple(_fraction(p) for p in minimax["distribution"]),
            _fraction(minimax["value"]),
        )
    return seen


def _search_result(t, f, d, witness) -> str:
    """'exhausted', or 'found' once the oracle confirms the witness."""
    if witness is None:
        return "exhausted"
    weighings, placement = witness
    if oracle.is_discreet_proof(t, f, d, weighings, placement):
        return "found"
    return "unsound witness"


def observe(request, answer) -> dict:
    """Turn a raw answer into the fields its expected answer names."""
    if request.kind == "triple-pipeline":
        verdict, privacy, metrics, minimax = answer
        return {
            "valid": verdict.valid,
            "consistent_f": verdict.consistent_count_f,
            "consistent_d": verdict.consistent_count_d,
            "discreet": privacy.discreet,
            "old": metrics.old_possibilities,
            "new": metrics.new_possibilities,
            "X": metrics.factor_x,
            "R": metrics.coefficient_r,
            "minimax": (tuple(minimax[0]), minimax[1]),
        }
    if request.kind == "search":
        t, f, d, _ = request.args
        witness = None
        if answer is not None:
            witness = (
                [(sorted(w.left), sorted(w.right)) for w in answer.plan.weighings],
                sorted(answer.placement),
            )
        return {"result": _search_result(t, f, d, witness)}
    if request.kind == "odd-t":
        return {"all_satisfy": answer.all_satisfy}
    code, text = answer
    report = json.loads(text) if text else {}
    command = request.args[0]
    if command == "verify":
        return {"exit": code, "report": report}
    if command == "search":
        t, f, d = (int(request.args[i]) for i in (2, 4, 6))
        witness = None
        if not report.get("exhausted"):
            witness = (
                [(w["left"], w["right"]) for w in report["plan"]["weighings"]],
                report["placement"],
            )
        return {
            "exit": code,
            "bound": report.get("bound"),
            "result": _search_result(t, f, d, witness),
        }
    return _read_report(code, report)


def expected_answer(request) -> dict:
    if request.expected is not None:
        return request.expected
    t, f, d, weighings, placement, outcomes = request.plan
    code, report = oracle.verify_report(t, f, d, weighings, placement, outcomes)
    return {"exit": code, "report": report}


def mismatches(request, answer, expected) -> list:
    """Names of the expected fields the answer gets wrong; empty if right."""
    try:
        seen = observe(request, answer)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable answer ({type(exc).__name__}: {exc})"]
    return [key for key, value in expected.items() if key not in seen or seen[key] != value]


# --- closed forms from the paper's constructions ----------------------------


def triple_case_piles(t: int, f: int) -> tuple:
    """Pile sizes of the three cases A, B, C of the triple-case construction:
    every A_i + B_i holds floor(t/f) - 1 coins and every B_i + C_i holds 3."""
    k, r = divmod(t, f)
    return (
        [k - 2] * r + [k - 3] * (f - r),
        [1] * r + [2] * (f - r),
        [2] * r + [1] * (f - r),
    )


def triple_case_answer(t: int, f: int) -> dict:
    """Survivors are prod|A_i| + prod|B_i| + prod|C_i|.  A coin in a pile of
    n coins of case c is fake in prod(c)/n of them, so the uniform best guess
    is the largest such share.  Each coin sits in one case only, so the
    lawyer's minimax weights case c by its smallest pile m_c, normalised,
    and the judge then wins with 1/sum(m_c)."""
    cases = triple_case_piles(t, f)
    ways = [prod(case) for case in cases]
    total = sum(ways)
    smallest = [min(case) for case in cases]
    return {
        "consistent_f": total,
        "guess_prob": max(Fraction(w, n * total) for case, w in zip(cases, ways) for n in case),
        "minimax": (
            tuple(Fraction(m, sum(smallest)) for m in smallest),
            Fraction(1, sum(smallest)),
        ),
    }


def _proof(t, f, new, discreet, revealed_real=0) -> dict:
    old = comb(t, f)
    return {
        "exit": 0,
        "valid": True,
        "consistent_f": new,
        "consistent_d": 0,
        "discreet": discreet,
        "revealed_real": revealed_real,
        "revealed_fake": 0,
        "old": old,
        "new": new,
        "X": Fraction(old, new),
        "R": 1 - Fraction(new, old),
    }


def _instance_args(t, f, d, a=None) -> list:
    args = ["--t", str(t), "--f", str(f), "--d", str(d)]
    return args + ["--a", str(a)] if a else args


# --- the request lists ------------------------------------------------------

# The paper's minimax for triple-case 80-3-2.
PAPER_MINIMAX = ((Fraction(23, 25), Fraction(1, 25), Fraction(1, 25)), Fraction(1, 25))


def _paper_80() -> list:
    triple = triple_case_answer(80, 3)
    equal_guess = {f: Fraction(f, 80) for f in (2, 4)}  # f/a fakes in each t/a pile
    constructs = [
        ("official", 3, 2, None, _proof(80, 3, 8000, True), Fraction(1, 20)),
        ("leftover-reveal", 3, 2, None, _proof(80, 3, 16900, False, 3), Fraction(1, 25)),
        ("reference-pile", 3, 2, None, _proof(80, 3, 8000, False, 20), Fraction(1, 20)),
        ("triple-case", 3, 2, None, _proof(80, 3, triple["consistent_f"], True), triple["guess_prob"]),
        ("equal-piles", 2, 1, 2, _proof(80, 2, 1600, True), equal_guess[2]),
        ("equal-piles", 4, 3, 4, _proof(80, 4, 160000, True), equal_guess[4]),
        ("equal-piles", 4, 3, 2, _proof(80, 4, 608400, True), equal_guess[4]),
    ]
    requests = []
    for strategy, f, d, a, expected, guess in constructs:
        expected["guess_prob"] = guess
        if strategy == "triple-case":
            expected["minimax"] = PAPER_MINIMAX
        label = f"construct {strategy} 80-{f}-{d}" + (f" a={a}" if a else "")
        argv = ("construct", strategy, *_instance_args(80, f, d, a))
        requests.append(Request(label, "cli", argv, expected=expected))
    requests.append(
        Request(
            "guess triple-case 80-3-2",
            "cli",
            ("guess", "triple-case", *_instance_args(80, 3, 2)),
            expected={"exit": 0, "guess_prob": triple["guess_prob"], "minimax": PAPER_MINIMAX},
        )
    )
    return requests


# f = 7 (t = 251) is left out: its 9 s request would fit only twice in a run,
# too few repeats for steady figures on a shared machine.
COUNT_DEEP = ((4, 121), (5, 161), (6, 200))


def _count_deep() -> list:
    requests = []
    for f, t in COUNT_DEEP:
        closed = triple_case_answer(t, f)
        expected = _proof(t, f, closed["consistent_f"], True)
        for key in ("exit", "revealed_real", "revealed_fake"):
            del expected[key]
        expected["minimax"] = closed["minimax"]
        requests.append(Request(f"triple-case {t}-{f}-{f - 1}", "triple-pipeline", (t, f, f - 1), expected=expected))
    return requests


def _search_certificates():
    """(certificate, t, f, d, bound, expected result) behind `reproduce`."""
    for t in (3, 5, 7):
        yield "impossible-3-5-7", t, 2, 1, SEARCH_BOUND, "exhausted"
    for t in range(2, 7):
        for d in range(t + 1):
            if d != 1:
                yield "impossible-one-fake", t, 1, d, SEARCH_BOUND, "exhausted"
    for t in range(3, 7):
        for d in range(t + 1):
            if d != t - 1:
                yield "impossible-one-real", t, t - 1, d, SEARCH_BOUND, "exhausted"
    for t in range(3, 9):
        yield "impossible-2-0", t, 2, 0, SEARCH_BOUND, "exhausted"
    yield "witness-9-coins", 9, 2, 1, 2, "found"


def _search_bounded() -> list:
    requests = []
    for name, t, f, d, bound, result in _search_certificates():
        argv = ("search", *_instance_args(t, f, d), "--max-weighings", str(bound))
        expected = {"exit": 0, "bound": bound, "result": result}
        requests.append(Request(f"{name} {t}-{f}-{d}", "cli", argv, expected=expected))
    requests.append(
        Request("search_discreet 10-3-2", "search", (10, 3, 2, SEARCH_BOUND), expected={"result": "found"})
    )
    requests.append(Request("check_odd_t_itineraries 9", "odd-t", (9, 3), expected={"all_satisfy": True}))
    return requests


def _verify_plans() -> list:
    """(t, f, d, weighings, placement, outcome source) of every verify-mixed
    request: one plan for each coin count in VERIFY_T in every (weighings,
    f, d) stratum, drawn once from a fixed stream.  Every other request
    carries explicit outcomes: half of those are what the placement shows,
    the rest what another random fake set would show.  The plans' itinerary
    classes set how much work a request is, so they are the same for every
    seed; a seed would otherwise change the size of the workload along with
    its inputs."""
    fixed = random.Random(0)
    plans = []
    for num_weighings in range(1, 5):
        for f in (2, 3):
            for d in range(f + 2):
                if d == f:
                    continue
                for t in VERIFY_T:
                    weighings = []
                    for _ in range(num_weighings):
                        size = fixed.randint(1, t // 2)
                        coins = fixed.sample(range(t), 2 * size)
                        weighings.append((coins[:size], coins[size:]))
                    placement = fixed.sample(range(t), f)
                    source = None
                    if len(plans) % 2:
                        source = placement if fixed.random() < 0.5 else fixed.sample(range(t), f)
                    plans.append((t, f, d, weighings, placement, source))
    return plans


def _verify_mixed(rng: random.Random) -> list:
    """User plans sent to `verify` as JSON on stdin.  The seed relabels the
    coins of every plan and sets the order of the requests."""
    requests = []
    for i, (t, f, d, weighings, placement, source) in enumerate(_verify_plans()):
        label = rng.sample(range(t), t)
        weighings = [
            (tuple(sorted(label[c] for c in left)), tuple(sorted(label[c] for c in right)))
            for left, right in weighings
        ]
        placement = tuple(sorted(label[c] for c in placement))
        data = {
            "t": t,
            "weighings": [{"left": list(left), "right": list(right)} for left, right in weighings],
            "placement": list(placement),
        }
        outcomes = None
        if source is not None:
            outcomes = [
                oracle.SIGN_OUTCOME[s]
                for s in oracle.simulate(weighings, [label[c] for c in source])
            ]
            data["outcomes"] = outcomes
        requests.append(
            Request(
                f"verify #{i} t={t} f={f} d={d}",
                "cli",
                ("verify", "-", "--f", str(f), "--d", str(d)),
                stdin=json.dumps(data),
                plan=(t, f, d, weighings, placement, outcomes),
            )
        )
    rng.shuffle(requests)
    return requests


def build(workload: str, seed: int) -> list:
    """The workload's requests, in the order they are sent.  Only
    verify-mixed draws its inputs from the seed; the other lists are fixed,
    order included, since a request's latency depends on what ran before it."""
    if workload == "verify-mixed":
        return _verify_mixed(random.Random(seed))
    return {"paper-80": _paper_80, "count-deep": _count_deep, "search-bounded": _search_bounded}[workload]()
