"""Golden reference checks: every headline number the bundled strategies are
documented to produce, compared with what the tool computes.  The strategy
rows read the reports that ``construct`` prints (`cli._bundle_report`), so
they certify the CLI's own numbers.  Backs the CLI ``reproduce`` subcommand
and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cli import _bundle_report, _frac
from .metrics import approx3, equal_piles_factor
from .model import ProblemInstance
from .search import optimal_f2_new_possibilities, search_discreet
from .strategies import (
    build_equal_piles,
    build_leftover_reveal,
    build_official,
    build_reference_pile,
    build_triple_case,
)

SEARCH_BOUND_NOTE = (
    "search rows certify only plans within the stated weighing bound; "
    "longer plans are out of scope for the bounded oracle"
)


@dataclass(frozen=True)
class CheckRow:
    id: str
    group: str
    description: str
    expected: str
    computed: str
    passed: bool

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "group": self.group,
            "description": self.description,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
        }


def _show(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(_show(v) for v in value) + ")"
    return str(value)


def _row(check_id, group, description, expected, computed) -> CheckRow:
    return CheckRow(
        check_id, group, description, _show(expected), _show(computed),
        expected == computed,
    )


def _report(t, f, d, builder, **kwargs) -> dict:
    """The report `construct` prints for the builder's proof of (t, f, d)."""
    return _bundle_report(builder(ProblemInstance(t, f, d), **kwargs))[0]


def _search_result(searches) -> str:
    """A search row's result: "exhausted" when none of the searches finds a
    witness, else "witness found" (no search runs after the first witness)."""
    if all(search_discreet(*args) is None for args in searches):
        return "exhausted"
    return "witness found"


def run_reference_checks(name_filter: str | None = None) -> list:
    """Recompute all reference values.  When `name_filter` is given, only
    rows whose group equals it, or whose id or description contains it, are
    run.  Groups: strategy, judge, metrics, guess, search, optimal."""
    rows: list[CheckRow] = []

    def add(check_id, group, description, expected, computed_fn):
        if name_filter and not (
            name_filter == group
            or name_filter in check_id
            or name_filter in description
        ):
            return
        rows.append(_row(check_id, group, description, expected, computed_fn()))

    s1 = _report(80, 2, 1, build_equal_piles, a=2)
    s2 = _report(80, 3, 2, build_leftover_reveal)
    s3 = _report(80, 3, 2, build_reference_pile)
    s4 = _report(80, 3, 2, build_official)
    s5 = _report(80, 3, 2, build_triple_case)

    # two equal piles of 40, one fake in each (80-2-1)
    add("equal-piles-2-count", "judge", "80-2-1 equal piles: surviving fake pairs",
        1600, lambda: s1["verdict"]["consistent_f"])
    add("equal-piles-2-factor", "metrics", "80-2-1 equal piles: revealing factor 3160/1600",
        Fraction(3160, 1600), lambda: _frac(s1["metrics"]["X"]))
    add("equal-piles-2-coefficient", "metrics", "80-2-1 equal piles: revealing coefficient 1560/3160",
        Fraction(1560, 3160), lambda: _frac(s1["metrics"]["R"]))

    # the five-pile discreet plan for 80-3-2
    add("official-valid", "strategy", "80-3-2 official: proof valid and discreet",
        (True, True), lambda: (s4["verdict"]["valid"], s4["privacy"]["discreet"]))
    add("official-count", "judge", "80-3-2 official: surviving fake triples",
        8000, lambda: s4["verdict"]["consistent_f"])
    add("official-factor", "metrics", "80-3-2 official: revealing factor 82160/8000",
        Fraction(82160, 8000), lambda: _frac(s4["metrics"]["X"]))
    add("official-coefficient", "metrics", "80-3-2 official: revealing coefficient ~0.903",
        0.903, lambda: s4["metrics"]["R"]["approx"])
    add("official-guess", "guess", "80-3-2 official: best single-coin guess 1/20",
        Fraction(1, 20), lambda: _frac(s4["guess"]["uniform"]["prob"]))

    # three piles of 26 plus a revealed chain (80-3-2)
    add("leftover-valid", "strategy", "80-3-2 leftover-reveal: valid but indiscreet",
        (True, False), lambda: (s2["verdict"]["valid"], s2["privacy"]["discreet"]))
    add("leftover-revealed", "strategy", "80-3-2 leftover-reveal: exactly 3 coins exposed as real",
        3, lambda: len(s2["privacy"]["revealed_real"]))
    add("leftover-count", "judge", "80-3-2 leftover-reveal: surviving fake triples 26*26*25",
        16900, lambda: s2["verdict"]["consistent_f"])
    add("leftover-factor", "metrics", "80-3-2 leftover-reveal: revealing factor ~4.86",
        4.86, lambda: float(round(_frac(s2["metrics"]["X"]), 2)))
    add("leftover-coefficient", "metrics", "80-3-2 leftover-reveal: revealing coefficient ~0.794",
        0.794, lambda: s2["metrics"]["R"]["approx"])
    add("leftover-guess", "guess", "80-3-2 leftover-reveal: best single-coin guess 1/25",
        Fraction(1, 25), lambda: _frac(s2["guess"]["uniform"]["prob"]))
    add("leftover-guess-bound", "guess", "80-3-2 leftover-reveal: guess equals 1/(floor(t/f)-ceil(d/f))",
        Fraction(1, 26 - 1), lambda: _frac(s2["guess"]["uniform"]["prob"]))

    # four piles of 20 against a reference pile (80-3-2)
    add("reference-revealed", "strategy", "80-3-2 reference-pile: the whole 20-coin pile exposed",
        20, lambda: len(s3["privacy"]["revealed_real"]))
    add("reference-count", "judge", "80-3-2 reference-pile: surviving fake triples 20^3",
        8000, lambda: s3["verdict"]["consistent_f"])
    add("reference-factor", "metrics", "80-3-2 reference-pile: revealing factor equals the official plan's",
        Fraction(82160, 8000), lambda: _frac(s3["metrics"]["X"]))
    add("reference-guess", "guess", "80-3-2 reference-pile: best single-coin guess 1/20",
        Fraction(1, 20), lambda: _frac(s3["guess"]["uniform"]["prob"]))

    # nine piles, three indistinguishable cases (80-3-2)
    add("triple-valid", "strategy", "80-3-2 triple-case: proof valid and discreet",
        (True, True), lambda: (s5["verdict"]["valid"], s5["privacy"]["discreet"]))
    add("triple-minimax", "guess", "80-3-2 triple-case: minimax guess 1/25 at (23/25, 1/25, 1/25)",
        ((Fraction(23, 25), Fraction(1, 25), Fraction(1, 25)), Fraction(1, 25)),
        lambda: (tuple(map(_frac, s5["guess"]["minimax"]["distribution"])),
                 _frac(s5["guess"]["minimax"]["value"])))

    # equal piles for 80-4-3: fewer piles reveal less
    e4 = _report(80, 4, 3, build_equal_piles, a=4)
    e2 = _report(80, 4, 3, build_equal_piles, a=2)
    add("equal-piles-4-count", "judge", "80-4-3 four piles: surviving options 20^4",
        160000, lambda: e4["verdict"]["consistent_f"])
    add("equal-piles-4-factor", "metrics", "80-4-3 four piles: revealing factor ~9.885 (~9.9)",
        9.885, lambda: approx3(equal_piles_factor(80, 4, 4)))
    add("equal-piles-2of4-count", "judge", "80-4-3 two piles: surviving options C(40,2)^2",
        608400, lambda: e2["verdict"]["consistent_f"])
    add("equal-piles-2of4-factor", "metrics", "80-4-3 two piles: revealing factor ~2.60",
        2.6, lambda: float(round(equal_piles_factor(80, 4, 2), 2)))
    add("equal-piles-2of4-coefficient", "metrics", "80-4-3 two piles: revealing coefficient ~0.615",
        0.615, lambda: e2["metrics"]["R"]["approx"])

    # impossibility sweeps, each bounded by the weighings its row states
    add("impossible-3-5-7", "search", "no discreet plan within 3 weighings for (3,2,1), (5,2,1), (7,2,1)",
        "exhausted", lambda: _search_result((t, 2, 1, 3) for t in (3, 5, 7)))
    add("impossible-one-fake", "search", "no discreet plan within 3 weighings for one fake, t <= 6",
        "exhausted",
        lambda: _search_result(
            (t, 1, d, 3) for t in range(2, 7) for d in range(0, t + 1) if d != 1
        ))
    add("impossible-one-real", "search", "no discreet plan within 3 weighings for one real coin, t <= 6",
        "exhausted",
        lambda: _search_result(
            (t, t - 1, d, 3) for t in range(3, 7) for d in range(0, t + 1) if d != t - 1
        ))
    add("impossible-2-0", "search", "no discreet plan within 3 weighings proving 2 fakes against 0, t <= 8",
        "exhausted", lambda: _search_result((t, 2, 0, 3) for t in range(3, 9)))
    add("impossible-2-0-w4", "search", "no discreet plan within 4 weighings proving 2 fakes against 0, t <= 9",
        "exhausted", lambda: _search_result((t, 2, 0, 4) for t in range(3, 10)))
    add("witness-9-coins", "search", "discreet plan exists for (9,2,1) within 2 weighings",
        "witness found", lambda: _search_result([(9, 2, 1, 2)]))

    # optimal surviving-option counts for two fakes, one to disprove
    add("optimal-even", "optimal", "even t in 4..20: optimum equals (t/2)^2",
        True,
        lambda: all(
            optimal_f2_new_possibilities(t)[0] == (t // 2) ** 2
            for t in range(4, 21, 2)
        ))
    add("optimal-odd", "optimal", "odd t in 9..21: optimum equals (floor(t/2)-2)(floor(t/2)-3)+4",
        True,
        lambda: all(
            optimal_f2_new_possibilities(t)[0] == (t // 2 - 2) * (t // 2 - 3) + 4
            for t in range(9, 22, 2)
        ))
    add("optimal-80", "optimal", "t=80: optimum 1600 with the single pair (40,40)",
        (1600, ((40, 40),)), lambda: optimal_f2_new_possibilities(80))

    return rows
