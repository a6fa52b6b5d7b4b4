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
from collections import Counter
from dataclasses import dataclass, field
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
        for name in ("t", "f", "d"):
            _checked_int(getattr(self, name), name)
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
        return _weighing_problems(self, None)

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
    # what the judge has worked out of this object (`judge._tally`); it
    # takes no part in equality, hashing or repr and is freed with it
    _judged: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "_judged", {})
        if len(self.outcomes) != len(self.plan.weighings):
            raise ValueError(
                f"{len(self.outcomes)} outcomes for "
                f"{len(self.plan.weighings)} weighings"
            )
        stray = [o for o in self.outcomes if type(o) is not Outcome]
        if stray:
            # a string or a sign would fail later, deep in the judge
            raise ValidationError(f"outcomes must be Outcome members, got {stray[0]!r}")

    def __reduce__(self):
        # a copy or an unpickled transcript starts with an empty memo
        return Transcript, (self.plan, self.outcomes)


def _weighing_problems(weighing: Weighing, t) -> list[str]:
    """`Weighing.violations`, then the coins outside 0..t-1 unless t is None.
    The pans' union is built once and each coin tested once."""
    left, right = weighing.left, weighing.right
    problems = []
    if left & right:
        problems.append(f"pans overlap on coins {sorted(left & right)}")
    if len(left) != len(right):
        problems.append(f"unequal pans: {len(left)} vs {len(right)} coins")
    if not left or not right:
        problems.append("empty pan")
    # a bool equals coin 0 or 1 but is not an index; the partition
    # keeps whichever of the two a set intersection meets first
    bad, outside = [], []
    for c in left | right:
        if type(c) is not int or c < 0:
            bad.append(c)
        elif t is not None and c >= t:
            outside.append(c)
    if bad:
        problems.append(f"invalid coin indices {sorted(map(repr, bad))}")
    if t is not None:
        outside += [c for c in bad if isinstance(c, int) and not 0 <= c < t]
        if outside:
            problems.append(f"coins {sorted(outside)} outside 0..{t - 1}")
    return problems


def validate_plan(plan: WeighingPlan) -> list[str]:
    """Return all structural violations of the plan; empty means valid.  A
    coin count that is not an int is the only problem reported, since the
    weighings cannot be range-checked against it."""
    try:
        _checked_int(plan.t, "coin count")
    except ValidationError as exc:
        return [str(exc)]
    problems = [f"coin count must be positive, got t={plan.t}"] if plan.t < 1 else []
    for i, w in enumerate(plan.weighings):
        problems += [f"weighing {i}: {p}" for p in _weighing_problems(w, plan.t)]
    return problems


def simulate_outcome(weighing: Weighing, fakes: Iterable) -> Outcome:
    """Outcome of one weighing given the hidden fake set.

    Balanced iff both pans hold the same number of fakes; otherwise the pan
    with more fakes is the lighter one.
    """
    problems = weighing.violations()
    if problems:
        raise ValidationError("; ".join(problems))
    fakes = _checked_coins(fakes, "fake coin")
    # a lone weighing has no t to range-check against, but no index is negative
    negative = sorted(c for c in fakes if c < 0)
    if negative:
        raise ValidationError(f"fake coins {negative} are negative")
    return weighing.outcome(fakes)


def simulate_transcript(plan: WeighingPlan, fakes: Iterable) -> Transcript:
    """Run every weighing of the plan against a fixed fake set."""
    problems = validate_plan(plan)
    if problems:
        raise ValidationError("; ".join(problems))
    fakes = _checked_coins(fakes, "fake coin")
    _refuse_stray_placement(fakes, plan.t)
    return Transcript(plan, tuple(w.outcome(fakes) for w in plan.weighings))


def itinerary_of(plan: WeighingPlan, coin: int) -> str:
    """The coin's path through the plan: one of L/R/O per weighing."""
    t = _checked_int(plan.t, "coin count")
    if not 0 <= _checked_int(coin, "coin") < t:
        raise ValidationError(f"coin {coin} outside 0..{t - 1}")
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
    """Group all coins by their itinerary; a disjoint cover of 0..t-1, in
    itinerary order.

    The classes are refined one weighing at a time, as in partition
    refinement (Paige and Tarjan, 1987): each class so far splits into its
    coins on the left pan, off the scale and on the right pan, by set
    operations rather than a test per coin.  Since "L" < "O" < "R",
    splitting sorted classes in that order keeps them sorted."""
    problems = validate_plan(plan)
    if problems:
        raise ValidationError("; ".join(problems))
    classes = {"": frozenset(range(plan.t))}
    for w in plan.weighings:
        pan_left, pan_right = w.left, w.right
        refined = {}
        for itin, coins in classes.items():
            left = coins & pan_left
            right = coins & pan_right
            off = coins.difference(left, right) if left or right else coins
            if left:
                refined[itin + "L"] = left
            if off:
                refined[itin + "O"] = off
            if right:
                refined[itin + "R"] = right
        classes = refined
    return classes


_PAN = {"L": 0, "O": 1, "R": 2}  # a class's part in `_route`, in itinerary order


def _route(groups, pans, sizes) -> tuple:
    """How one weighing routes groups of class indices, when class j holds
    `sizes[j]` coins and goes to pan `pans[j]` ("L", "R" or "O"): each
    group's L, O and R class lists and its (left, right, off) coins.  Groups
    in itinerary order, refined in L, O, R order, stay in itinerary order."""
    parts, split = [], []
    for group in groups:
        part, load = ([], [], []), [0, 0, 0]
        for j in group:
            pan = _PAN[pans[j]]
            part[pan].append(j)
            load[pan] += sizes[j]
        parts.append(part)
        split.append((load[0], load[2], load[1]))
    return parts, tuple(split)


# --- JSON encoding (field names are the wire format used by the CLI) ---


def plan_to_json(plan: WeighingPlan) -> dict:
    return {
        "t": plan.t,
        "weighings": [
            {"left": sorted(w.left), "right": sorted(w.right)}
            for w in plan.weighings
        ],
    }


def _checked_int(value, what: str) -> int:
    """`value` if it is an integer.  Booleans, strings and other numbers are
    refused rather than coerced: ``int(0.9)`` or ``int(True)`` would
    silently name a different coin.  The value is shown as JSON, the form
    the CLI reads it in."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {json.dumps(value, default=repr)}")
    return value


def _checked_coins(coins: Iterable, what: str) -> frozenset:
    """`coins` as a set, if each is an int, the rule `_weighing_problems`
    applies to the pans: 0.0 and True equal coins 0 and 1 but are not
    indices, and "0" would fail a range check with a bare TypeError."""
    coins = frozenset(coins)
    bad = [c for c in coins if type(c) is not int]
    if bad:
        raise ValidationError(f"{what} must be an integer, got {', '.join(sorted(map(repr, bad)))}")
    return coins


def _refuse_stray_placement(coins: frozenset, t: int) -> None:
    """Refuse placed fakes outside 0..t-1.  The simulation and the judge
    both check the placement, so `verify` names it the same way whether
    or not its outcomes are given."""
    stray = sorted(c for c in coins if not 0 <= c < t)
    if stray:
        raise ValidationError(f"placement coins {stray} outside 0..{t - 1}")


def _json_object(data, what: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise ValidationError(f"{what} must be a JSON object")
    return data


def _json_list(values, what: str) -> list:
    if not isinstance(values, list):
        raise ValidationError(f"{what} must be a list")
    return values


def _outcome_from_json(value, what: str) -> Outcome:
    for outcome in Outcome:
        if value == outcome.value:
            return outcome
    names = ", ".join(json.dumps(o.value) for o in Outcome)
    raise ValidationError(f"{what} must be one of {names}, got {json.dumps(value, default=repr)}")


def coins_from_json(values, what: str) -> frozenset:
    """A list of coin indices from JSON, each checked by `_checked_int`.
    A repeated index is refused, since the set would silently drop it."""
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"{what} must be a list of coin indices")
    listed = [_checked_int(c, f"coin index in {what}") for c in values]
    coins = frozenset(listed)
    if len(coins) < len(listed):
        repeated = sorted(c for c, n in Counter(listed).items() if n > 1)
        raise ValidationError(f"{what} lists coins {repeated} more than once")
    return coins


def plan_from_json(data: Mapping) -> WeighingPlan:
    try:
        t = _checked_int(_json_object(data, "the document")["t"], "t")
        weighings = []
        for i, w in enumerate(_json_list(data["weighings"], "weighings")):
            w = _json_object(w, f"weighing {i}")
            weighings.append(Weighing(
                coins_from_json(w["left"], f"weighing {i} left pan"),
                coins_from_json(w["right"], f"weighing {i} right pan"),
            ))
    except (KeyError, TypeError, ValidationError) as exc:
        raise ValidationError(f"malformed plan JSON: {exc}") from exc
    return WeighingPlan(t, weighings)


def transcript_to_json(transcript: Transcript) -> dict:
    data = plan_to_json(transcript.plan)
    data["outcomes"] = [o.value for o in transcript.outcomes]
    return data


def transcript_from_json(data: Mapping) -> Transcript:
    return transcript_for_plan(plan_from_json(data), data)


def transcript_for_plan(plan: WeighingPlan, data: Mapping) -> Transcript:
    """The transcript of `plan`, already read from `data` by
    `plan_from_json`, with the outcomes listed in `data`."""
    try:
        listed = _json_list(_json_object(data, "the document")["outcomes"], "outcomes")
        outcomes = tuple(_outcome_from_json(o, f"outcome {i}") for i, o in enumerate(listed))
    except (KeyError, TypeError, ValidationError) as exc:
        raise ValidationError(f"malformed transcript JSON: {exc}") from exc
    try:
        return Transcript(plan, outcomes)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
