"""Leakage metrics: revealing factor and coefficient, single-coin guessing
probabilities, and the lawyer's minimax placement distribution.

Everything is exact rational arithmetic (`fractions.Fraction`); floats only
appear in display fields, rounded half-even to three places.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Sequence


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

    @property
    def total_fakes(self) -> int:
        return sum(p.fakes for p in self.cases[0])

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


def best_single_guess(consistent: Iterable, weights: Sequence | None = None):
    """The judge's best one-coin guess against a family of consistent fake
    sets: returns (coin, success probability), ties broken by lowest index.

    With no weights the family is treated as uniform; the probability of a
    coin is then just the fraction of sets containing it.
    """
    sets = [frozenset(s) for s in consistent]
    if not sets:
        raise ValueError("cannot guess against an empty family of fake sets")
    if not any(sets):
        raise ValueError("the consistent sets contain no coins to guess")
    if weights is None:
        counts = Counter()
        for s in sets:
            counts.update(s)
        top = max(counts.values())
        coin = min(c for c, n in counts.items() if n == top)
        return coin, Fraction(top, len(sets))
    weights = [Fraction(w) for w in weights]
    if len(weights) != len(sets):
        raise ValueError(f"{len(weights)} weights for {len(sets)} sets")
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise ValueError("weights must be nonnegative and sum to 1")
    marginal: dict[int, Fraction] = {}
    for s, w in zip(sets, weights):
        for coin in s:
            marginal[coin] = marginal.get(coin, Fraction(0)) + w
    top = max(marginal.values())
    coin = min(c for c, p in marginal.items() if p == top)
    return coin, top


# --- exact minimax over placement cases ---
#
# The lawyer mixes over cases with probabilities p; the judge then picks the
# single coin with the highest marginal.  The marginal of a coin is linear in
# p, so the objective max_coin(marginal) is piecewise linear and the optimum
# sits at a vertex of { p in simplex, v >= every coin row }.  With at most 6
# cases we simply enumerate candidate vertices exactly over Fractions.

MAX_MINIMAX_CASES = 6


def _solve_linear(rows: list, rhs: list):
    """Gaussian elimination over Fractions; None if the system is singular."""
    n = len(rows)
    aug = [list(row) + [r] for row, r in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


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
    """
    k = len(structure.cases)
    if k > MAX_MINIMAX_CASES:
        raise ValueError(f"minimax supports at most {MAX_MINIMAX_CASES} cases, got {k}")
    rows = _coin_rows(structure)
    zero, one = Fraction(0), Fraction(1)

    # Variables (p_0..p_{k-1}, v).  The simplex equality is always active;
    # choose k more tight constraints among coin rows (row.p = v) and
    # nonnegativity (p_c = 0), solve, and keep the best feasible vertex.
    simplex_row = [one] * k + [zero]
    candidates = [(tuple(row) + (-one,), zero) for row in rows]
    candidates += [
        (tuple(one if i == c else zero for i in range(k)) + (zero,), zero)
        for c in range(k)
    ]
    best = None
    for chosen in itertools.combinations(candidates, k):
        matrix = [simplex_row] + [list(row) for row, _ in chosen]
        rhs = [one] + [r for _, r in chosen]
        solution = _solve_linear(matrix, rhs)
        if solution is None:
            continue
        p, v = solution[:k], solution[k]
        if any(x < 0 for x in p):
            continue
        if any(sum(a * x for a, x in zip(row, p)) > v for row in rows):
            continue
        if best is None or v < best[1]:
            best = (tuple(p), v)
    if best is None:  # cannot happen: the feasible region is pointed and bounded below
        raise RuntimeError("minimax vertex enumeration found no feasible vertex")
    probabilities, value = best
    achieved = max(case_marginals(structure, probabilities).values())
    if achieved != value:
        raise RuntimeError(
            f"minimax vertex value {value} disagrees with the achieved guess {achieved}"
        )
    return probabilities, value
