"""Constructors for the named weighing strategies.

Each builder returns a :class:`StrategyBundle`: the plan, the case
structure of placements the judge cannot tell apart, and the properties the
strategy claims (discreet or not, which coins it expects to expose).  The
judge engine cross-checks every claim.

Piles occupy contiguous index ranges in the order they are introduced.  The
bundle derives its one concrete fake placement from its cases: each pile's
fakes take its lowest indices, in the case whose fakes sort first.  So every
construction is fully deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import ceil

from .metrics import CaseStructure, Pile
from .model import (
    Outcome,
    ProblemInstance,
    Weighing,
    WeighingPlan,
    _checked_int,
    plan_to_json,
    simulate_transcript,
)


class ConstructionError(ValueError):
    """The instance violates a precondition of the requested strategy."""


@dataclass(frozen=True)
class StrategyBundle:
    name: str
    instance: ProblemInstance
    plan: WeighingPlan
    placement: frozenset = field(init=False)
    cases: CaseStructure
    expected_outcomes: tuple
    expected_discreet: bool
    revealed_expected: frozenset

    def __post_init__(self) -> None:
        placement = min(
            sorted(itertools.chain.from_iterable(sorted(p.coins)[: p.fakes] for p in case))
            for case in self.cases.cases
        )
        object.__setattr__(self, "placement", frozenset(placement))

    def transcript(self):
        return simulate_transcript(self.plan, self.placement)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "instance": self.instance.to_json(),
            "plan": plan_to_json(self.plan),
            "placement": sorted(self.placement),
            "expected_outcomes": [o.value for o in self.expected_outcomes],
            "expected_discreet": self.expected_discreet,
            "revealed_expected": sorted(self.revealed_expected),
            "cases": self.cases.to_json()["cases"],
        }


def _contiguous_piles(sizes) -> list:
    piles, start = [], 0
    for size in sizes:
        piles.append(frozenset(range(start, start + size)))
        start += size
    return piles


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConstructionError(message)


def build_equal_piles(instance: ProblemInstance, a: int) -> StrategyBundle:
    """Split the coins into `a` piles of equal size and equal fake content and
    show all piles weigh the same, proving the fake count is a multiple of a.

    Discreet whenever a > 1 divides t and f but not d.
    """
    t, f, d = instance.t, instance.f, instance.d
    _require(_checked_int(a, "a") > 1, f"equal-piles needs a > 1, got a={a}")
    _require(t % a == 0, f"equal-piles needs a | t, but {a} does not divide t={t}")
    _require(f % a == 0, f"equal-piles needs a | f, but {a} does not divide f={f}")
    _require(d % a != 0, f"equal-piles needs a to not divide d, but {a} divides d={d}")

    pile_size, per_pile = t // a, f // a
    piles = _contiguous_piles([pile_size] * a)
    weighings = tuple(Weighing(piles[0], piles[i]) for i in range(1, a))
    cases = CaseStructure((tuple(Pile(p, per_pile) for p in piles),))
    return StrategyBundle(
        name="equal-piles",
        instance=instance,
        plan=WeighingPlan(t, weighings),
        cases=cases,
        expected_outcomes=(Outcome.BALANCED,) * (a - 1),
        expected_discreet=True,
        revealed_expected=frozenset(),
    )


def build_triple_case(instance: ProblemInstance) -> StrategyBundle:
    """The three-way construction for f not dividing t: piles A_1..A_f,
    B_1..B_f, C_1..C_f sized so that every A_i+B_i weighs k-1 coins and every
    B_i+C_i weighs 3 coins.  Balancing both families leaves exactly three
    indistinguishable placements (one fake per A pile, per B pile, or per C
    pile), so the proof is discreet.
    """
    t, f, d = instance.t, instance.f, instance.d
    k, r = divmod(t, f)
    _require(r != 0, "triple-case needs f to not divide t (use equal-piles when f | t)")
    _require(k >= 4, f"triple-case needs floor(t/f) >= 4, got {k}")
    _require(0 < d < f, f"triple-case needs 0 < d < f, got d={d}, f={f}")

    a_sizes = [k - 2] * r + [k - 3] * (f - r)
    b_sizes = [1] * r + [2] * (f - r)
    c_sizes = [2] * r + [1] * (f - r)
    piles = _contiguous_piles(a_sizes + b_sizes + c_sizes)
    a_piles, b_piles, c_piles = piles[:f], piles[f : 2 * f], piles[2 * f :]

    weighings = tuple(
        Weighing(a_piles[0] | b_piles[0], a_piles[i] | b_piles[i])
        for i in range(1, f)
    ) + tuple(
        Weighing(b_piles[0] | c_piles[0], b_piles[i] | c_piles[i])
        for i in range(1, f)
    )
    cases = CaseStructure(
        (
            tuple(Pile(p) for p in a_piles),
            tuple(Pile(p) for p in b_piles),
            tuple(Pile(p) for p in c_piles),
        )
    )
    return StrategyBundle(
        name="triple-case",
        instance=instance,
        plan=WeighingPlan(t, weighings),
        cases=cases,
        expected_outcomes=(Outcome.BALANCED,) * (2 * (f - 1)),
        expected_discreet=True,
        revealed_expected=frozenset(),
    )


def build_official(instance: ProblemInstance) -> StrategyBundle:
    """Five piles A, B (t/8 each) and C, D, E (t/4 each) with fakes in A, D
    and E.  Weigh A+C against B+D (balanced), A+B against E (balanced), then
    C+D against A+B+E (right pan lighter).  The judge learns one fake is in
    E, one in A+B, one in C+D, paired so that A goes with D and B with C;
    nobody's identity is determined.
    """
    t, f, d = instance.t, instance.f, instance.d
    _require(f == 3, f"official needs f = 3, got f={f}")
    _require(0 < d < 3, f"official needs 0 < d < 3, got d={d}")
    _require(t % 8 == 0, f"official needs t divisible by 8, got t={t}")

    unit = t // 8
    pile_a, pile_b, pile_c, pile_d, pile_e = _contiguous_piles(
        [unit, unit, 2 * unit, 2 * unit, 2 * unit]
    )
    weighings = (
        Weighing(pile_a | pile_c, pile_b | pile_d),
        Weighing(pile_a | pile_b, pile_e),
        Weighing(pile_c | pile_d, pile_a | pile_b | pile_e),
    )
    cases = CaseStructure(
        (
            (Pile(pile_a), Pile(pile_d), Pile(pile_e)),
            (Pile(pile_b), Pile(pile_c), Pile(pile_e)),
        )
    )
    return StrategyBundle(
        name="official",
        instance=instance,
        plan=WeighingPlan(t, weighings),
        cases=cases,
        expected_outcomes=(Outcome.BALANCED, Outcome.BALANCED, Outcome.RIGHT_LIGHTER),
        expected_discreet=True,
        revealed_expected=frozenset(),
    )


def build_leftover_reveal(instance: ProblemInstance) -> StrategyBundle:
    """f equal piles with one fake each plus t mod f leftover coins.  After
    balancing the piles, a chain of 1-vs-1 weighings shows that the leftovers
    together with a few coins borrowed from the piles, at least d+1 coins in
    all, weigh the same.  Those chained coins are exposed as real, which is
    exactly what rules out the count d; the strategy is indiscreet on
    purpose.
    """
    t, f, d = instance.t, instance.f, instance.d
    k, r = divmod(t, f)
    _require(r != 0, f"leftover-reveal needs f to not divide t, got t={t}, f={f}")
    _require(d % f != 0, f"leftover-reveal needs f to not divide d, got d={d}, f={f}")
    _require(
        d < t - f * ceil((d + 1) / f),
        f"leftover-reveal needs d < t - f*ceil((d+1)/f) so enough real coins "
        f"can be borrowed (t={t}, f={f}, d={d})",
    )

    piles = _contiguous_piles([k] * f)
    leftovers = list(range(f * k, t))
    borrow_total = max(0, d + 1 - r)
    base, extra = divmod(borrow_total, f)
    borrowed = []
    pools = []
    # take <= ceil((d+1)/f) <= k - 1 by the check above, so each pile keeps a coin
    for i, pile in enumerate(piles):
        take = base + (1 if i < extra else 0)
        coins = sorted(pile)
        borrowed.extend(coins[k - take :])
        pools.append(frozenset(coins[: k - take]))
    _require(
        min(len(p) for p in pools) >= 2,
        "leftover-reveal would pin a fake to a single coin; piles too small",
    )

    chained = leftovers + borrowed
    weighings = tuple(Weighing(piles[0], piles[i]) for i in range(1, f)) + tuple(
        Weighing(frozenset({chained[j]}), frozenset({chained[j + 1]}))
        for j in range(len(chained) - 1)
    )
    cases = CaseStructure((tuple(Pile(p) for p in pools),))
    return StrategyBundle(
        name="leftover-reveal",
        instance=instance,
        plan=WeighingPlan(t, weighings),
        cases=cases,
        expected_outcomes=(Outcome.BALANCED,) * len(weighings),
        expected_discreet=False,
        revealed_expected=frozenset(chained),
    )


def build_reference_pile(instance: ProblemInstance) -> StrategyBundle:
    """f+1 equal piles; the last holds no fakes and each of the others is
    shown to be lighter than it.  Proves the count but exposes the whole
    reference pile as real.
    """
    t, f, d = instance.t, instance.f, instance.d
    _require(
        t % (f + 1) == 0,
        f"reference-pile needs (f+1) | t, but {f + 1} does not divide t={t}",
    )
    _require(0 < d < f, f"reference-pile needs 0 < d < f, got d={d}, f={f}")

    size = t // (f + 1)
    piles = _contiguous_piles([size] * (f + 1))
    fake_piles, reference = piles[:f], piles[f]
    weighings = tuple(Weighing(p, reference) for p in fake_piles)
    cases = CaseStructure((tuple(Pile(p) for p in fake_piles),))
    return StrategyBundle(
        name="reference-pile",
        instance=instance,
        plan=WeighingPlan(t, weighings),
        cases=cases,
        expected_outcomes=(Outcome.LEFT_LIGHTER,) * f,
        expected_discreet=False,
        revealed_expected=reference,
    )


BUILDERS = {
    "equal-piles": build_equal_piles,
    "triple-case": build_triple_case,
    "official": build_official,
    "leftover-reveal": build_leftover_reveal,
    "reference-pile": build_reference_pile,
}
