"""Leakage metrics: revealing factor and coefficient, single-coin guessing
probabilities, and the lawyer's minimax placement distribution.

Everything is exact: results are `fractions.Fraction`s and the minimax
works in integers, one share row per distinct pile signature.  Floats only
appear in display fields, rounded half-even to three places.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Sequence

from .model import ValidationError, _checked_coins, _checked_int


def approx3(value: Fraction) -> float:
    """Display rendering: round half-even to 3 decimal places."""
    return float(round(Fraction(value), 3))


def rational_to_json(value: Fraction, display: bool = True) -> dict:
    """`num` and `den`, and with `display` the `approx3` rendering as
    `approx`: None (JSON null) for a value beyond a float's range.

    >>> rational_to_json(Fraction(10) ** 400)["approx"] is None
    True
    """
    value = Fraction(value)
    data = {"num": value.numerator, "den": value.denominator}
    if display:
        try:
            data["approx"] = approx3(value)
        except OverflowError:
            data["approx"] = None
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
    for value, name in ((t, "t"), (f, "f"), (new_possibilities, "new possibilities")):
        _checked_int(value, name)
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
    for value, name in ((t, "t"), (f, "f"), (a, "a")):
        _checked_int(value, name)
    if a <= 1:
        raise ValueError(f"need a > 1, got a={a}")
    if t % a or f % a:
        raise ValueError(f"a={a} must divide both t={t} and f={f}")
    return Fraction(comb(t, f), comb(t // a, f // a) ** a)


def equal_piles_factor_limit(f: int, a: int) -> float:
    """Value the a-equal-piles revealing factor approaches as t grows:
    f^f / f! * ((f/a)! / (f/a)^(f/a)) ** a."""
    for value, name in ((f, "f"), (a, "a")):
        _checked_int(value, name)
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
        object.__setattr__(self, "coins", _checked_coins(self.coins, "pile coin"))
        if not self.coins:
            raise ValueError("a pile must contain at least one coin")
        if min(self.coins) < 0:
            raise ValidationError(f"pile coins {sorted(c for c in self.coins if c < 0)} are negative")
        if not 1 <= _checked_int(self.fakes, "fakes") <= len(self.coins):
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
        if totals == {0}:  # no coin at risk leaves the minimax unbounded
            raise ValueError("a case structure needs at least one fake")

    def to_json(self) -> dict:
        return {
            "cases": [
                [{"coins": sorted(p.coins), "fakes": p.fakes} for p in case]
                for case in self.cases
            ]
        }


def _coin_shares(structure: CaseStructure) -> tuple:
    """(`keys`, `rows`): `keys[coin]` is the coin's pile signature, its pile's
    index in each case (-1 for none), from one pass over the piles' coins,
    the only work done per coin.  `rows[key]` holds per case the pile's
    fakes/|pile| (0 for none) times the row's scale, the lcm of the reduced
    denominators, then the scale: integers, equal for equal shares.  Coins
    come in the order the cases and their piles first list them."""
    cases = structure.cases
    piles: dict[int, list] = {}
    for c, case in enumerate(cases):
        for i, pile in enumerate(case):
            for coin in pile.coins:
                piles.setdefault(coin, [-1] * len(cases))[c] = i
    keys = {coin: tuple(where) for coin, where in piles.items()}
    # each pile's fakes and size reduced by their gcd; index -1 is no pile
    shares = [[(p.fakes // (g := gcd(p.fakes, len(p.coins))), len(p.coins) // g)
               for p in case] + [(0, 1)] for case in cases]
    rows = {}
    for key in set(keys.values()):
        pairs = [share[i] for share, i in zip(shares, key)]
        scale = lcm(*(d for _, d in pairs))
        rows[key] = tuple(n * (scale // d) for n, d in pairs) + (scale,)
    return keys, rows


def case_marginals(structure: CaseStructure, probabilities: Sequence) -> dict:
    """Per-coin probability of being fake when the lawyer picks case c with
    probability p_c and hides the fakes uniformly within each pile.  Coins
    come in the order the cases and their piles first list them.  Each
    probability must be an int or a `Fraction`: a string, float or bool is
    refused rather than coerced, since ``Fraction(0.1)`` is not 1/10 and
    ``True`` is not a probability."""
    probs = list(probabilities)
    for p in probs:
        if isinstance(p, bool) or not isinstance(p, (int, Fraction)):
            raise ValidationError(f"case probability {p!r} is not an int or a Fraction")
    probs = list(map(Fraction, probs))
    if len(probs) != len(structure.cases):
        raise ValueError(
            f"{len(probs)} probabilities for {len(structure.cases)} cases"
        )
    if any(p < 0 for p in probs) or sum(probs) != 1:
        raise ValueError("case probabilities must be nonnegative and sum to 1")
    keys, rows = _coin_shares(structure)
    marginals = {key: sum(map(mul, probs, row)) / row[-1] for key, row in rows.items()}
    return {coin: marginals[key] for coin, key in keys.items()}


# --- exact minimax over placement cases ---


def minimax_distribution(structure: CaseStructure):
    """The case distribution minimizing the judge's best single-coin guess.

    Returns (probabilities, value), both exact; value equals the maximum of
    `case_marginals` at the returned distribution, which is checked once
    per distinct share row, in integers.  A dual vector certifies that no
    distribution does better: a mixed guess of the judge over the share
    rows that is right with probability at least value in every case.

    >>> from discreet_weighings import ProblemInstance, build_official
    >>> minimax_distribution(build_official(ProblemInstance(80, 3, 2)).cases)
    ((Fraction(1, 2), Fraction(1, 2)), Fraction(1, 20))
    """
    # The lawyer's game: minimise v subject to row.p <= v for every share
    # row, p >= 0 and sum(p) = 1.  With q = p / v this is the packing LP
    # max sum(q) s.t. row.q <= 1, q >= 0.  The rows go in the order of their
    # values (compared over one common scale): Bland's rule breaks ties by
    # basis index, so another order could reach another vertex.
    rows = set(_coin_shares(structure)[1].values())
    common = lcm(*(row[-1] for row in rows))
    rows = sorted(rows, key=lambda row: [x * (common // row[-1]) for x in row])
    k = len(structure.cases)
    q, den, y = _packing_vertex(rows, k)
    # the vertex q / den meets every row, row.q <= den * scale, and one row
    # exactly; then den / sum(q) is the largest coin marginal at p
    if min(q) < 0 or min(den * row[k] - sum(map(mul, row, q)) for row in rows) != 0:
        raise RuntimeError(f"minimax vertex {q} / {den} is not tight on the share rows")
    total = sum(q)
    # y / den is feasible for the dual, min y.scale s.t. sum_i y_i row_i >= 1
    # per case, at the primal's value sum(q) / den: by weak duality no q does
    # better.  Guessing a coin of row i with probability y_i scale_i / sum(q)
    # is right with probability at least den / sum(q) in every case
    covered = [sum(y_i * row[c] for y_i, row in zip(y, rows)) for c in range(k + 1)]
    if min(y) < 0 or min(covered[:k]) < den or covered[k] != total:
        raise RuntimeError(f"minimax dual {y} / {den} does not certify the vertex")
    return tuple(Fraction(x, total) for x in q), Fraction(den, total)


def _packing_vertex(rows: list, k: int) -> tuple:
    """The vertex (q, den, y), q_j = q[j] / den, of max sum(q) s.t. row.q <=
    scale and q >= 0 over the integer share `rows` (k shares, then the
    scale), with the dual y_i / den of row i: the final reduced cost of its
    slack when that slack is nonbasic, and 0 otherwise.

    The origin is feasible and every case puts some coin at risk, so one
    phase solves it; Bland's rule (lowest entering variable, lowest leaving
    basic variable on ratio ties) cannot cycle and reaches the same vertex
    every time, whatever each row's scale.  The tableau is compact (Tucker's
    form): one line per basic variable, x_B + sum(a_j x_j) = b over the
    nonbasic x_j, and one for the reduced costs of minimising -sum(q); j < k
    is q_j and k + i the slack of row i.  Pivoting is fraction-free (Bareiss
    1968): every entry is an integer over the common denominator `den`, the
    previous pivot, and Sylvester's identity makes each division exact."""
    tableau = [list(row) for row in rows]
    cost = [-1] * k + [0]
    nonbasic = list(range(k))
    basis = list(range(k, k + len(rows)))
    den = 1
    while True:
        entering = [j for j in range(k) if cost[j] < 0]
        if not entering:
            break
        enter = min(entering, key=nonbasic.__getitem__)
        leave = None
        for r, line in enumerate(tableau):
            if line[enter] > 0:
                if leave is None:
                    leave = r
                    continue
                # compare the ratios line[-1] / line[enter] across lines
                here = line[-1] * tableau[leave][enter]
                best = tableau[leave][-1] * line[enter]
                if here < best or (here == best and basis[r] < basis[leave]):
                    leave = r
        pivot_line = tableau[leave]
        pivot = pivot_line[enter]
        for line in tableau + [cost]:
            if line is not pivot_line:
                factor = line[enter]
                line[:] = [(x * pivot - factor * y) // den for x, y in zip(line, pivot_line)]
                line[enter] = -factor
        pivot_line[enter] = den
        den = pivot
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]
    q = [0] * k
    for r, j in enumerate(basis):
        if j < k:
            q[j] = tableau[r][-1]
    y = [0] * len(rows)
    for position, j in enumerate(nonbasic):
        if j >= k:
            y[j - k] = cost[position]
    return q, den, y
