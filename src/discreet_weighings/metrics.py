"""Leakage metrics: revealing factor and coefficient, single-coin guessing
probabilities, and the lawyer's minimax placement distribution.

Everything is exact rational arithmetic (`fractions.Fraction`); floats only
appear in display fields, rounded half-even to three places.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence


def approx3(value: Fraction) -> float:
    """Display rendering: round half-even to 3 decimal places."""
    return float(round(Fraction(value), 3))


def rational_to_json(value: Fraction, display: bool = True) -> dict:
    value = Fraction(value)
    data = {"num": value.numerator, "den": value.denominator}
    if display:
        data["approx"] = approx3(value)
    return data


@dataclass(frozen=True)
class RevealingMetrics:
    """How much a successful set of weighings narrowed the judge's options."""

    old_possibilities: int
    new_possibilities: int
    factor_x: Fraction
    coefficient_r: Fraction

    def to_json(self) -> dict:
        return {
            "old": self.old_possibilities,
            "new": self.new_possibilities,
            "X": rational_to_json(self.factor_x),
            "R": rational_to_json(self.coefficient_r),
        }


def revealing_metrics(t: int, f: int, new_possibilities: int) -> RevealingMetrics:
    """Factor X = old/new and coefficient R = 1 - 1/X, where old = C(t, f)."""
    old = comb(t, f)
    if old == 0:
        raise ValueError(f"no size-{f} fake sets exist for t={t}")
    if not 1 <= new_possibilities <= old:
        raise ValueError(
            f"new possibilities must lie in 1..{old}, got {new_possibilities}"
        )
    x = Fraction(old, new_possibilities)
    r = 1 - Fraction(new_possibilities, old)
    return RevealingMetrics(old, new_possibilities, x, r)


def equal_piles_factor(t: int, f: int, a: int) -> Fraction:
    """Exact revealing factor of the a-equal-piles plan:
    C(t, f) / C(t/a, f/a) ** a."""
    if a <= 1:
        raise ValueError(f"need a > 1, got a={a}")
    if t % a or f % a:
        raise ValueError(f"a={a} must divide both t={t} and f={f}")
    return Fraction(comb(t, f), comb(t // a, f // a) ** a)


def equal_piles_factor_limit(f: int, a: int) -> float:
    """Value the a-equal-piles revealing factor approaches as t grows:
    f^f / f! * ((f/a)! / (f/a)^(f/a)) ** a."""
    if a <= 1:
        raise ValueError(f"need a > 1, got a={a}")
    if f % a:
        raise ValueError(f"a={a} must divide f={f}")
    m = f // a
    exact = Fraction(f**f, factorial(f)) * Fraction(factorial(m), m**m) ** a
    return float(exact)


# --- case structures: the families of placements a strategy leaves open ---


@dataclass(frozen=True)
class Pile:
    """A set of coins known to hold exactly `fakes` fake coins in some case."""

    coins: frozenset
    fakes: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "coins", frozenset(self.coins))
        if not self.coins:
            raise ValueError("a pile must contain at least one coin")
        if not 1 <= self.fakes <= len(self.coins):
            raise ValueError(
                f"pile of {len(self.coins)} coins cannot hold {self.fakes} fakes"
            )


@dataclass(frozen=True)
class CaseStructure:
    """Mutually exclusive placement cases; every case is a tuple of disjoint
    piles and all cases account for the same total number of fakes."""

    cases: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "cases", tuple(tuple(c) for c in self.cases))
        if not self.cases:
            raise ValueError("a case structure needs at least one case")
        totals = set()
        for case in self.cases:
            seen: set = set()
            for pile in case:
                if seen & pile.coins:
                    raise ValueError("piles within one case must be disjoint")
                seen |= pile.coins
            totals.add(sum(p.fakes for p in case))
        if len(totals) != 1:
            raise ValueError(f"cases disagree on the total fake count: {totals}")

    def to_json(self) -> dict:
        return {
            "cases": [
                [{"coins": sorted(p.coins), "fakes": p.fakes} for p in case]
                for case in self.cases
            ]
        }


def case_marginals(structure: CaseStructure, probabilities: Sequence) -> dict:
    """Per-coin probability of being fake when the lawyer picks case c with
    probability p_c and hides the fakes uniformly within each pile."""
    probs = [Fraction(p) for p in probabilities]
    if len(probs) != len(structure.cases):
        raise ValueError(
            f"{len(probs)} probabilities for {len(structure.cases)} cases"
        )
    if any(p < 0 for p in probs) or sum(probs) != 1:
        raise ValueError("case probabilities must be nonnegative and sum to 1")
    marginals: dict[int, Fraction] = {}
    for case, p in zip(structure.cases, probs):
        for pile in case:
            share = p * Fraction(pile.fakes, len(pile.coins))
            for coin in pile.coins:
                marginals[coin] = marginals.get(coin, Fraction(0)) + share
    return marginals


# --- exact minimax over placement cases ---


def _coin_rows(structure: CaseStructure) -> list:
    """Distinct per-coin coefficient vectors: row[c] = fakes/|pile| for the
    pile holding the coin in case c (0 when the coin is not at risk there)."""
    per_coin: dict[int, list] = {}
    for c, case in enumerate(structure.cases):
        for pile in case:
            share = Fraction(pile.fakes, len(pile.coins))
            for coin in pile.coins:
                row = per_coin.setdefault(coin, [Fraction(0)] * len(structure.cases))
                row[c] = share
    return sorted({tuple(row) for row in per_coin.values()})


def minimax_distribution(structure: CaseStructure):
    """The case distribution minimizing the judge's best single-coin guess.

    Returns (probabilities, value), both exact; value equals the maximum of
    `case_marginals` at the returned distribution.

    >>> from discreet_weighings import ProblemInstance, build_official
    >>> minimax_distribution(build_official(ProblemInstance(80, 3, 2)).cases)
    ((Fraction(1, 2), Fraction(1, 2)), Fraction(1, 20))
    """
    # The lawyer's game: minimise v subject to row.p <= v for every coin row,
    # p >= 0 and sum(p) = 1.  With q = p / v this is the packing LP
    # max sum(q) s.t. row.q <= 1, q >= 0, whose origin is feasible, so one
    # simplex phase over an exact tableau (columns q, then one slack per row)
    # solves it.  Every case puts some coin at risk, so sum(q) is bounded.
    # Bland's rule (lowest entering column, lowest leaving basic index on
    # ratio ties) cannot cycle and picks the same vertex every time.
    rows = _coin_rows(structure)
    k, m = len(structure.cases), len(rows)
    zero, one = Fraction(0), Fraction(1)
    tableau = [
        list(row) + [one if j == i else zero for j in range(m)] + [one]
        for i, row in enumerate(rows)
    ]
    cost = [-one] * k + [zero] * (m + 1)  # reduced costs of minimising -sum(q)
    basis = list(range(k, k + m))
    while True:
        enter = next((j for j, c in enumerate(cost[:-1]) if c < 0), None)
        if enter is None:
            break
        _, _, i = min(
            (line[-1] / line[enter], basis[r], r)
            for r, line in enumerate(tableau)
            if line[enter] > 0
        )
        pivot = tableau[i][enter]
        tableau[i] = [x / pivot for x in tableau[i]]
        for line in tableau + [cost]:
            factor = line[enter]
            if factor and line is not tableau[i]:
                line[:] = [x - factor * y for x, y in zip(line, tableau[i])]
        basis[i] = enter
    q = [zero] * k
    for r, j in enumerate(basis):
        if j < k:
            q[j] = tableau[r][-1]
    value = 1 / sum(q)
    probabilities = tuple(x * value for x in q)
    achieved = max(case_marginals(structure, probabilities).values())
    if achieved != value:
        raise RuntimeError(
            f"minimax vertex value {value} disagrees with the achieved guess {achieved}"
        )
    return probabilities, value
