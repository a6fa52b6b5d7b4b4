"""Brute-force answers for the benchmark, independent of the library.

Everything here tries every subset of coins outright.  Nothing is imported
from `discreet_weighings`: these are the expected answers the library's
outputs are compared against, so they must not share its code.

A plan is given as a list of (left, right) coin-index collections.  Outcome
signs follow the CLI wire format: +1 is "left_lighter" (more fakes on the
left pan), -1 is "right_lighter" and 0 is "balanced".
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

SIGN_OUTCOME = {0: "balanced", 1: "left_lighter", -1: "right_lighter"}
OUTCOME_SIGN = {name: sign for sign, name in SIGN_OUTCOME.items()}


def _masks(weighings):
    return [
        (sum(1 << c for c in left), sum(1 << c for c in right))
        for left, right in weighings
    ]


def simulate(weighings, fakes) -> tuple:
    """Outcome sign of every weighing for a fixed fake set."""
    fakes = set(fakes)
    signs = []
    for left, right in weighings:
        diff = len(fakes.intersection(left)) - len(fakes.intersection(right))
        signs.append((diff > 0) - (diff < 0))
    return tuple(signs)


def consistent_sets(t: int, size: int, weighings, signs) -> list:
    """Every size-`size` subset of 0..t-1 that shows the given signs."""
    masks = list(zip(_masks(weighings), signs))
    bits = [1 << c for c in range(t)]
    found = []
    for combo in itertools.combinations(range(t), size):
        mask = 0
        for c in combo:
            mask |= bits[c]
        for (left, right), sign in masks:
            diff = (mask & left).bit_count() - (mask & right).bit_count()
            if (diff > 0) - (diff < 0) != sign:
                break
        else:
            found.append(combo)
    return found


def count_consistent(t: int, size: int, weighings, signs) -> int:
    return len(consistent_sets(t, size, weighings, signs))


def approx3(value: Fraction) -> float:
    """The CLI's display rounding: half-even to three places."""
    return float(round(value, 3))


def _rational(value: Fraction, display: bool = True) -> dict:
    data = {"num": value.numerator, "den": value.denominator}
    if display:
        data["approx"] = approx3(value)
    return data


def verify_report(t: int, f: int, d: int, weighings, placement, outcomes=None):
    """The exit code and JSON report `discreet-weighings verify` must print
    for a user plan, derived by enumerating every fake set.

    `outcomes` are wire-format outcome names; when None the outcomes are the
    ones the placement produces."""
    placement = sorted(placement)
    if outcomes is None:
        signs = simulate(weighings, placement)
    else:
        signs = tuple(OUTCOME_SIGN[o] for o in outcomes)
    survivors = consistent_sets(t, f, weighings, signs)
    count_d = count_consistent(t, d, weighings, signs)
    valid = bool(survivors) and count_d == 0 and simulate(weighings, placement) == signs
    report = {
        "strategy": "user-plan",
        "instance": {"t": t, "f": f, "d": d},
        "plan": {
            "t": t,
            "weighings": [
                {"left": sorted(left), "right": sorted(right)} for left, right in weighings
            ],
        },
        "placement": placement,
        "outcomes": [SIGN_OUTCOME[s] for s in signs],
        "verdict": {"valid": valid, "consistent_f": len(survivors), "consistent_d": count_d},
        "privacy": None,
        "metrics": None,
        "guess": None,
    }
    if not valid:
        return 1, report
    hits = [0] * t
    for combo in survivors:
        for c in combo:
            hits[c] += 1
    revealed_real = [c for c in range(t) if hits[c] == 0]
    revealed_fake = [c for c in range(t) if hits[c] == len(survivors)]
    top = max(hits)
    old, new = comb(t, f), len(survivors)
    report["privacy"] = {
        "discreet": not revealed_real and not revealed_fake,
        "revealed_real": revealed_real,
        "revealed_fake": revealed_fake,
    }
    report["metrics"] = {
        "old": old,
        "new": new,
        "X": _rational(Fraction(old, new)),
        "R": _rational(1 - Fraction(new, old)),
    }
    report["guess"] = {
        "uniform": {
            "coin": hits.index(top),
            "prob": _rational(Fraction(top, new), display=False),
        }
    }
    return 0, report


def is_discreet_proof(t: int, f: int, d: int, weighings, placement) -> bool:
    """True when the placement's outcomes leave some size-f set, no size-d
    set, and no coin that is fake in every surviving set or in none."""
    for left, right in weighings:
        left, right = set(left), set(right)
        if len(left) != len(right) or not left or left & right:
            return False
        if not left | right <= set(range(t)):
            return False
    if len(set(placement)) != f or not set(placement) <= set(range(t)):
        return False
    signs = simulate(weighings, placement)
    survivors = consistent_sets(t, f, weighings, signs)
    if not survivors or count_consistent(t, d, weighings, signs):
        return False
    seen_somewhere = set().union(*map(set, survivors))
    seen_everywhere = set(range(t)).intersection(*map(set, survivors))
    return len(seen_somewhere) == t and not seen_everywhere
