"""The judge's deduction engine.

Given a transcript, the judge considers every fake-set hypothesis that is
consistent with what the scale showed, under a two-point prior on the fake
count: either ``d`` or ``f``.  A proof is valid when at least one size-f set
survives, no size-d set does, and the lawyer's actual placement is among the
survivors.

Counting is done over itinerary classes rather than individual subsets.  All
coins sharing an itinerary are interchangeable: a weighing's outcome depends
only on how many fakes each class contributes to each pan.  So the consistent
size-s sets are exactly the unions of per-class choices described by a small
set of "class count vectors", and their number is a sum of products of
binomials.  The same vectors also say, per class, how many surviving sets
hold each of its coins, which is all the privacy report and the judge's
uniform best guess need.  Nothing here lists subsets, and one pass over the
size-f and size-d vectors answers a whole request:

    >>> from discreet_weighings import ProblemInstance, build_official
    >>> inst = ProblemInstance(80, 3, 2)
    >>> bundle = build_official(inst)
    >>> result = evaluate_proof(inst, bundle.transcript(), bundle.placement)
    >>> result.verdict.consistent_count_f, result.privacy.discreet
    (8000, True)
    >>> result.guess  # coin 0 is fake in 1 of every 20 surviving sets
    (0, Fraction(1, 20))

`consistent_count_vectors` finds the vectors by a depth-first walk over the
classes, not by listing every composition of s:

- **Order.** Classes that touch the most weighings go first, ties by class
  index, so shared reference piles are placed before the piles they are
  compared with.
- **Early closure.** Once the last class touching a weighing is placed, the
  weighing's sign is checked and the weighing leaves the live frontier.
- **Bounds.** A partial vector is dropped when some open weighing can no
  longer reach its sign: its pan difference can still grow by at most
  min(fakes left to place, coins left on that pan) on either side.
- **Set-up per plan.** The order, the closing and open weighings at each
  step and the coins left on each pan depend only on the classes, so they
  are built once and reused across signs and hypothesis sizes.

The vectors are sorted once at the end, which gives the lexicographic
order of an enumeration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .model import (
    ProblemInstance,
    Transcript,
    ValidationError,
    partition_by_itinerary,
)


class InvalidProofError(RuntimeError):
    """Privacy classification was requested for a transcript that does not
    constitute a valid proof."""


@dataclass(frozen=True)
class ProofVerdict:
    valid: bool
    consistent_count_f: int
    consistent_count_d: int

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "consistent_f": self.consistent_count_f,
            "consistent_d": self.consistent_count_d,
        }


@dataclass(frozen=True)
class PrivacyReport:
    discreet: bool
    revealed_real: frozenset
    revealed_fake: frozenset

    def to_json(self) -> dict:
        return {
            "discreet": self.discreet,
            "revealed_real": sorted(self.revealed_real),
            "revealed_fake": sorted(self.revealed_fake),
        }


@dataclass(frozen=True)
class ProofEvaluation:
    """Everything the judge concludes from one transcript and placement.
    `privacy` and `guess` (coin, probability) are None unless the proof is
    valid."""

    verdict: ProofVerdict
    privacy: PrivacyReport | None
    guess: tuple | None


def _checked_classes(t: int, transcript: Transcript) -> list:
    """(itinerary, coins) pairs for the plan, sorted by itinerary.  The
    partition validates the plan; that is the judge's only check of it."""
    if t != transcript.plan.t:
        raise ValueError(f"t={t} does not match the plan's t={transcript.plan.t}")
    return list(partition_by_itinerary(transcript.plan).items())


def _signs(transcript: Transcript) -> tuple:
    return tuple(o.sign for o in transcript.outcomes)


@functools.lru_cache(maxsize=32)
def _walk_plan(symbols: tuple, sizes: tuple) -> tuple:
    """The part of a walk that depends only on the classes, built once and
    reused: the search asks about the same classes for every outcome sign
    and both hypothesis sizes, and the judge asks twice per request.

    Returns (order, rest, steps, touched): `order[p]` is the class placed at
    position p, `rest[p]` the coins of the classes after it, and
    `steps[p]` = (terms, closes, live) where `terms` are the (weighing,
    +1 for L / -1 for R) pairs class order[p] touches, `closes` the
    weighings it touches last, and `live` the (weighing, coins left on the
    left pan, coins left on the right pan) of every weighing still open
    after it.  `touched` holds the weighings some class touches; every
    other weighing always balances."""
    num_weighings = len(symbols[0]) if symbols else 0
    touches = [
        tuple((i, 1 if s == "L" else -1) for i, s in enumerate(itin) if s != "O")
        for itin in symbols
    ]
    order = sorted(range(len(symbols)), key=lambda j: (-len(touches[j]), j))
    last = {}
    for p, j in enumerate(order):
        for i, _ in touches[j]:
            last[i] = p
    left = [0] * num_weighings
    right = [0] * num_weighings
    for j in order:
        for i, a in touches[j]:
            (left if a > 0 else right)[i] += sizes[j]
    steps = []
    rest = []
    remaining = sum(sizes)
    for p, j in enumerate(order):
        for i, a in touches[j]:
            (left if a > 0 else right)[i] -= sizes[j]
        remaining -= sizes[j]
        rest.append(remaining)
        closes = tuple(i for i, _ in touches[j] if last[i] == p)
        live = tuple((i, left[i], right[i]) for i, q in sorted(last.items()) if q > p)
        steps.append((touches[j], closes, live))
    return tuple(order), tuple(rest), tuple(steps), frozenset(last)


def consistent_count_vectors(symbols, sizes, codes, size: int) -> list:
    """All ways to spread `size` fakes over itinerary classes so that every
    weighing shows the given outcome sign, in lexicographic order.

    `symbols[j]` is class j's itinerary, `sizes[j]` its coin count, and
    `codes[i]` the sign of (fakes on left - fakes on right) in weighing i.
    The vectors are found by a depth-first walk over the classes that
    checks each weighing once its last class is placed and drops every
    partial vector that some open weighing can no longer satisfy.
    """
    order, rest, steps, touched = _walk_plan(tuple(symbols), tuple(sizes))
    if size > sum(sizes) or any(c for i, c in enumerate(codes) if i not in touched):
        return []
    k = len(order)
    # weighing i shows its sign iff floor[i] <= diff[i] <= ceil[i]; no pan
    # difference can pass +-(size + 1)
    floor = [1 if c > 0 else 0 if c == 0 else -size - 1 for c in codes]
    ceil = [-1 if c < 0 else 0 if c == 0 else size + 1 for c in codes]
    diff = [0] * len(codes)
    vec = [0] * k
    found = []
    # An explicit stack, since a plan may have more classes than Python may
    # recurse: positions 0..p hold their counts in vec[order[0..p]], and r
    # fakes are left for the positions after p.
    p, r = 0, size
    while True:
        if p == k:
            found.append(tuple(vec))
            p -= 1
        else:
            # start one below the least count that leaves no more fakes than
            # the later classes hold; the loop below steps it up first
            j = order[p]
            c = r - rest[p] - 1 if r > rest[p] else -1
            vec[j] = c
            r -= c
            for i, a in steps[p][0]:
                diff[i] += a * c
        while p >= 0:
            terms, closes, live = steps[p]
            j = order[p]
            c = vec[j]
            while r and c < sizes[j]:
                c += 1
                r -= 1
                for i, a in terms:
                    diff[i] += a
                for i in closes:
                    if not floor[i] <= diff[i] <= ceil[i]:
                        break
                else:
                    # an open weighing can still gain at most min(r, coins
                    # left on a pan) fakes on that pan
                    for i, on_left, on_right in live:
                        d = diff[i]
                        if d < floor[i]:
                            if floor[i] - d > (r if r < on_left else on_left):
                                break
                        elif d > ceil[i]:
                            if d - ceil[i] > (r if r < on_right else on_right):
                                break
                    else:
                        break  # count c fits: go on to the next position
            else:
                # every count was tried: back up to the previous position
                for i, a in terms:
                    diff[i] -= a * c
                r += c
                vec[j] = 0
                p -= 1
                continue
            vec[j] = c
            p += 1
            break
        else:
            found.sort()
            return found


@dataclass(frozen=True)
class _Tally:
    """The consistent size-s sets of one transcript, summarised per
    itinerary class.

    A vector `vec` stands for ways(vec) = prod_j C(n_j, vec[j]) sets, and
    `weights[j]` = sum of ways(vec) * vec[j] counts the (set, coin) pairs
    with the coin fake and in class j.  So each coin of class j is fake in
    weights[j] / n_j of the `count` sets."""

    classes: list  # (itinerary, coins), sorted by itinerary
    count: int
    weights: tuple

    def never_fake(self, j: int) -> bool:
        """Class j holds no fake in any consistent set."""
        return self.weights[j] == 0

    def always_fake(self, j: int) -> bool:
        """Class j is all fake in every consistent set."""
        return self.weights[j] == len(self.classes[j][1]) * self.count

    def privacy(self) -> PrivacyReport:
        revealed_real = []
        revealed_fake = []
        for j, (_, coins) in enumerate(self.classes):
            if self.never_fake(j):
                revealed_real.extend(coins)
            elif self.always_fake(j):
                revealed_fake.extend(coins)
        return PrivacyReport(
            discreet=not revealed_real and not revealed_fake,
            revealed_real=frozenset(revealed_real),
            revealed_fake=frozenset(revealed_fake),
        )

    def best_guess(self):
        """(coin, probability) of the best one-coin guess when every
        consistent set is equally likely; ties go to the lowest index."""
        if not self.count:
            raise ValueError("cannot guess against an empty family of fake sets")
        if not any(self.weights):
            raise ValueError("the consistent sets contain no coins to guess")
        # C(n, c) * c = n * C(n - 1, c - 1), so every weight divides exactly
        sets_per_coin = [w // len(coins) for (_, coins), w in zip(self.classes, self.weights)]
        top = max(sets_per_coin)
        coin = min(
            min(coins) for (_, coins), n in zip(self.classes, sets_per_coin) if n == top
        )
        return coin, Fraction(top, self.count)


def _tally(classes, codes, size: int) -> _Tally:
    sizes = [len(coins) for _, coins in classes]
    vectors = consistent_count_vectors([itin for itin, _ in classes], sizes, codes, size)
    count = 0
    weights = [0] * len(classes)
    for vec in vectors:
        ways = 1
        for n, c in zip(sizes, vec):
            ways *= comb(n, c)
        count += ways
        for j, c in enumerate(vec):
            if c:
                weights[j] += ways * c
    return _Tally(classes, count, tuple(weights))


def _checked_tally(t: int, s: int, transcript: Transcript) -> _Tally:
    classes = _checked_classes(t, transcript)
    if not 0 <= s <= t:
        raise ValueError(f"hypothesis size {s} outside 0..{t}")
    return _tally(classes, _signs(transcript), s)


def count_consistent(t: int, s: int, transcript: Transcript) -> int:
    """Number of size-s fake sets consistent with the transcript, computed
    from class count vectors without storing any subset."""
    return _checked_tally(t, s, transcript).count


def uniform_best_guess(t: int, s: int, transcript: Transcript):
    """The judge's best one-coin guess when every consistent size-s set is
    equally likely: (coin, success probability), ties broken by lowest
    index.  A coin's share of the sets follows from its class's share, so
    the sets are never listed."""
    return _checked_tally(t, s, transcript).best_guess()


def _sized_placement(instance: ProblemInstance, placement) -> frozenset:
    placement = frozenset(placement)
    if len(placement) != instance.f:
        raise ValueError(
            f"placement has {len(placement)} coins but the instance has f={instance.f}"
        )
    return placement


def _check_in_range(instance: ProblemInstance, placement: frozenset) -> None:
    stray = [c for c in placement if not 0 <= c < instance.t]
    if stray:
        raise ValidationError(f"placement coins {sorted(stray)} out of range")


def _verdict(transcript: Transcript, placement, count_f: int, count_d: int) -> ProofVerdict:
    placement_consistent = all(
        w.outcome(placement) is o
        for w, o in zip(transcript.plan.weighings, transcript.outcomes)
    )
    valid = placement_consistent and count_f >= 1 and count_d == 0
    return ProofVerdict(valid, count_f, count_d)


def verify_proof(
    instance: ProblemInstance, transcript: Transcript, placement
) -> ProofVerdict:
    """Decide whether the transcript proves "exactly f fakes" to a judge whose
    prior allows only the counts d and f."""
    placement = _sized_placement(instance, placement)
    # the plan is checked (by this count) before the placement's range
    count_f = count_consistent(instance.t, instance.f, transcript)
    _check_in_range(instance, placement)
    count_d = count_consistent(instance.t, instance.d, transcript)
    return _verdict(transcript, placement, count_f, count_d)


def classify_privacy(instance: ProblemInstance, transcript: Transcript) -> PrivacyReport:
    """Split coins into revealed-real (in no consistent set), revealed-fake
    (in all of them), and undetermined.  Discreet means neither set is
    inhabited.  Only meaningful after a valid proof."""
    classes = _checked_classes(instance.t, transcript)
    codes = _signs(transcript)
    tally_f = _tally(classes, codes, instance.f)
    if not tally_f.count or _tally(classes, codes, instance.d).count:
        raise InvalidProofError(
            "privacy classification is only defined for a valid proof"
        )
    return tally_f.privacy()


def evaluate_proof(
    instance: ProblemInstance, transcript: Transcript, placement
) -> ProofEvaluation:
    """The verdict of `verify_proof` and, for a valid proof, the report of
    `classify_privacy` and the uniform best guess, from one computation of
    the size-f and size-d class vectors."""
    placement = _sized_placement(instance, placement)
    classes = _checked_classes(instance.t, transcript)
    _check_in_range(instance, placement)
    codes = _signs(transcript)
    tally_f = _tally(classes, codes, instance.f)
    tally_d = _tally(classes, codes, instance.d)
    verdict = _verdict(transcript, placement, tally_f.count, tally_d.count)
    if not verdict.valid:
        return ProofEvaluation(verdict, None, None)
    return ProofEvaluation(verdict, tally_f.privacy(), tally_f.best_guess())
