"""Core model of balance-scale weighings over a pool of real and fake coins.

Coins are indexed 0..t-1.  Every fake coin has the same weight and every real
coin has the same, strictly larger, weight.  A weighing puts two disjoint,
equally sized sets of coins on the pans, so its outcome is a pure function of
how many fakes sit in each pan: the pan with more fakes is lighter.

All values here are immutable; every operation is a pure function.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterable, Mapping

ITINERARY_SYMBOLS = "LRO"  # left pan, right pan, off the scale


class ValidationError(ValueError):
    """A weighing, plan, or transcript breaks a structural rule."""


class Outcome(enum.Enum):
    BALANCED = "balanced"
    LEFT_LIGHTER = "left_lighter"
    RIGHT_LIGHTER = "right_lighter"

    @property
    def sign(self) -> int:
        """Sign of (fakes on the left pan - fakes on the right pan)."""
        return _OUTCOME_SIGN[self]

    @classmethod
    def from_sign(cls, value: int) -> "Outcome":
        """The outcome shown when the left pan holds `value` more fakes than
        the right one; only the sign of `value` matters."""
        return _SIGN_OUTCOME[(value > 0) - (value < 0)]


_OUTCOME_SIGN = {Outcome.BALANCED: 0, Outcome.LEFT_LIGHTER: 1, Outcome.RIGHT_LIGHTER: -1}
_SIGN_OUTCOME = {sign: outcome for outcome, sign in _OUTCOME_SIGN.items()}


@dataclass(frozen=True)
class ProblemInstance:
    """One scenario: ``t`` coins in total, ``f`` of them actually fake, and an
    alternative count ``d`` that the weighings must rule out."""

    t: int
    f: int
    d: int

    def __post_init__(self) -> None:
        if not 0 < self.f < self.t:
            raise ValueError(f"need 0 < f < t, got t={self.t}, f={self.f}")
        if not 0 <= self.d <= self.t:
            raise ValueError(f"need 0 <= d <= t, got d={self.d}, t={self.t}")
        if self.d == self.f:
            raise ValueError(f"d = f = {self.f}: there is nothing to disprove")

    def to_json(self) -> dict:
        return {"t": self.t, "f": self.f, "d": self.d}


@dataclass(frozen=True)
class Weighing:
    """One use of the scale: a left and a right pan of coin indices."""

    left: frozenset
    right: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", frozenset(self.left))
        object.__setattr__(self, "right", frozenset(self.right))

    def violations(self) -> list[str]:
        """Structural problems with this weighing alone (range checks against
        the coin count live in :func:`validate_plan`)."""
        problems = []
        overlap = self.left & self.right
        if overlap:
            problems.append(f"pans overlap on coins {sorted(overlap)}")
        if len(self.left) != len(self.right):
            problems.append(
                f"unequal pans: {len(self.left)} vs {len(self.right)} coins"
            )
        if not self.left or not self.right:
            problems.append("empty pan")
        bad = [c for c in self.left | self.right if not isinstance(c, int) or c < 0]
        if bad:
            problems.append(f"invalid coin indices {sorted(map(repr, bad))}")
        return problems

    def outcome(self, fakes: frozenset) -> Outcome:
        """What this weighing shows when `fakes` are the fake coins; the
        weighing is assumed valid."""
        return Outcome.from_sign(len(fakes & self.left) - len(fakes & self.right))


@dataclass(frozen=True)
class WeighingPlan:
    """An ordered sequence of weighings over coins 0..t-1."""

    t: int
    weighings: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "weighings", tuple(self.weighings))


@dataclass(frozen=True)
class Transcript:
    """A plan together with the outcome observed for each weighing."""

    plan: WeighingPlan
    outcomes: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if len(self.outcomes) != len(self.plan.weighings):
            raise ValueError(
                f"{len(self.outcomes)} outcomes for "
                f"{len(self.plan.weighings)} weighings"
            )


def validate_plan(plan: WeighingPlan) -> list[str]:
    """Return all structural violations of the plan; empty means valid."""
    problems = []
    if plan.t < 1:
        problems.append(f"coin count must be positive, got t={plan.t}")
    for i, w in enumerate(plan.weighings):
        for p in w.violations():
            problems.append(f"weighing {i}: {p}")
        out_of_range = [
            c for c in w.left | w.right if isinstance(c, int) and not 0 <= c < plan.t
        ]
        if out_of_range:
            problems.append(
                f"weighing {i}: coins {sorted(out_of_range)} outside 0..{plan.t - 1}"
            )
    return problems


def simulate_outcome(weighing: Weighing, fakes: Iterable) -> Outcome:
    """Outcome of one weighing given the hidden fake set.

    Balanced iff both pans hold the same number of fakes; otherwise the pan
    with more fakes is the lighter one.
    """
    problems = weighing.violations()
    if problems:
        raise ValidationError("; ".join(problems))
    return weighing.outcome(frozenset(fakes))


def simulate_transcript(plan: WeighingPlan, fakes: Iterable) -> Transcript:
    """Run every weighing of the plan against a fixed fake set."""
    problems = validate_plan(plan)
    if problems:
        raise ValidationError("; ".join(problems))
    fakes = frozenset(fakes)
    stray = [c for c in fakes if not 0 <= c < plan.t]
    if stray:
        raise ValidationError(f"fake coins {sorted(stray)} outside 0..{plan.t - 1}")
    return Transcript(plan, tuple(w.outcome(fakes) for w in plan.weighings))


def itinerary_of(plan: WeighingPlan, coin: int) -> str:
    """The coin's path through the plan: one of L/R/O per weighing."""
    if not 0 <= coin < plan.t:
        raise ValidationError(f"coin {coin} outside 0..{plan.t - 1}")
    symbols = []
    for w in plan.weighings:
        if coin in w.left:
            symbols.append("L")
        elif coin in w.right:
            symbols.append("R")
        else:
            symbols.append("O")
    return "".join(symbols)


_CONJUGATE = str.maketrans("LR", "RL")


def conjugate(itinerary: str) -> str:
    """Swap L and R everywhere; an involution that fixes exactly the all-O
    itinerary."""
    if not set(itinerary) <= set(ITINERARY_SYMBOLS):
        raise ValidationError(f"itinerary {itinerary!r} has symbols outside L/R/O")
    return itinerary.translate(_CONJUGATE)


def partition_by_itinerary(plan: WeighingPlan) -> dict:
    """Group all coins by their itinerary; a disjoint cover of 0..t-1."""
    problems = validate_plan(plan)
    if problems:
        raise ValidationError("; ".join(problems))
    groups: dict[str, list] = {}
    for coin in range(plan.t):
        groups.setdefault(itinerary_of(plan, coin), []).append(coin)
    return {itin: frozenset(coins) for itin, coins in sorted(groups.items())}


# --- JSON encoding (field names are the wire format used by the CLI) ---


def plan_to_json(plan: WeighingPlan) -> dict:
    return {
        "t": plan.t,
        "weighings": [
            {"left": sorted(w.left), "right": sorted(w.right)}
            for w in plan.weighings
        ],
    }


def _int_from_json(value, what: str) -> int:
    """`value` if it is a JSON integer.  Booleans, strings and other numbers
    are refused rather than coerced: ``int(0.9)`` or ``int(True)`` would
    silently name a different coin."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {json.dumps(value, default=repr)}")
    return value


def coins_from_json(values, what: str) -> frozenset:
    """A list of coin indices from JSON, each checked by `_int_from_json`.
    A repeated index is refused, since the set would silently drop it."""
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"{what} must be a list of coin indices")
    listed = [_int_from_json(c, f"coin index in {what}") for c in values]
    coins = frozenset(listed)
    if len(coins) < len(listed):
        repeated = sorted(c for c in coins if listed.count(c) > 1)
        raise ValidationError(f"{what} lists coins {repeated} more than once")
    return coins


def plan_from_json(data: Mapping) -> WeighingPlan:
    try:
        t = _int_from_json(data["t"], "t")
        weighings = tuple(
            Weighing(
                coins_from_json(w["left"], f"weighing {i} left pan"),
                coins_from_json(w["right"], f"weighing {i} right pan"),
            )
            for i, w in enumerate(data["weighings"])
        )
    except (KeyError, TypeError, ValidationError) as exc:
        raise ValidationError(f"malformed plan JSON: {exc}") from exc
    return WeighingPlan(t, weighings)


def transcript_to_json(transcript: Transcript) -> dict:
    data = plan_to_json(transcript.plan)
    data["outcomes"] = [o.value for o in transcript.outcomes]
    return data


def transcript_from_json(data: Mapping) -> Transcript:
    plan = plan_from_json(data)
    try:
        outcomes = tuple(Outcome(o) for o in data["outcomes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed transcript JSON: {exc}") from exc
    try:
        return Transcript(plan, outcomes)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
