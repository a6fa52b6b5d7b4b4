"""Bounded search for discreet strategies at small sizes, plus the
exact optimum of the two-fakes/one-to-disprove family.

Coins with the same itinerary are interchangeable, so plans are enumerated up
to coin relabeling as *itinerary profiles*: how many coins follow each L/R/O
string.  That collapses the plan space from exponential in t to compositions
of t over at most 3^w classes, which is what makes the exhaustions below
finish at desk scale.  Plans that differ only by swapping the pans of one
weighing are also identified.

The walk adds one weighing and outcome at a time and drops a branch once
some class is pinned (never fake, or all fake, in every consistent size-f
set).  That is exact: a pinned class stays pinned under more weighings.

Every result is relative to the weighing bound it was run with: exhausting
the search certifies that no plan with at most `max_weighings` weighings
works, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass

from .judge import consistent_count_vectors
from .metrics import CaseStructure, Pile
from .model import (
    ITINERARY_SYMBOLS,
    Outcome,
    ProblemInstance,
    Weighing,
    WeighingPlan,
    conjugate,
    partition_by_itinerary,
)
from .strategies import StrategyBundle

MAX_SEARCH_T = 12
MAX_SEARCH_WEIGHINGS = 4


@dataclass(frozen=True)
class ItineraryProfile:
    """Coin counts per itinerary for a fixed number of weighings, with every
    pan pair equally loaded."""

    counts: tuple

    def __post_init__(self) -> None:
        counts = tuple(sorted((str(itin), int(n)) for itin, n in self.counts))
        object.__setattr__(self, "counts", counts)
        if not counts:
            raise ValueError("a profile needs at least one itinerary class")
        length = len(counts[0][0])
        for itin, n in counts:
            if len(itin) != length:
                raise ValueError("itineraries of mixed lengths")
            if not set(itin) <= set(ITINERARY_SYMBOLS):
                raise ValueError(f"itinerary {itin!r} has symbols outside L/R/O")
            if n < 1:
                raise ValueError(f"class {itin!r} has count {n}")
        for pos in range(length):
            left = sum(n for itin, n in counts if itin[pos] == "L")
            right = sum(n for itin, n in counts if itin[pos] == "R")
            if left != right or left < 1:
                raise ValueError(f"weighing {pos}: pans hold {left} vs {right} coins")

    @property
    def t(self) -> int:
        return sum(n for _, n in self.counts)

    @property
    def num_weighings(self) -> int:
        return len(self.counts[0][0])

    def class_ranges(self) -> dict:
        """Contiguous coin ranges per class, assigned in itinerary order."""
        ranges, start = {}, 0
        for itin, n in self.counts:
            ranges[itin] = frozenset(range(start, start + n))
            start += n
        return ranges

    def to_plan(self) -> WeighingPlan:
        """Expand to a labeled plan that reproduces this profile."""
        ranges = self.class_ranges()
        weighings = []
        for pos in range(self.num_weighings):
            left: set = set()
            right: set = set()
            for itin, _ in self.counts:
                if itin[pos] == "L":
                    left |= ranges[itin]
                elif itin[pos] == "R":
                    right |= ranges[itin]
            weighings.append(Weighing(frozenset(left), frozenset(right)))
        return WeighingPlan(self.t, tuple(weighings))

    @classmethod
    def from_plan(cls, plan: WeighingPlan) -> "ItineraryProfile":
        return cls(
            tuple(
                (itin, len(coins))
                for itin, coins in partition_by_itinerary(plan).items()
            )
        )


def _checked_instance(t: int, f: int, d: int, max_weighings: int) -> ProblemInstance:
    if t > MAX_SEARCH_T:
        raise ValueError(f"search is bounded to t <= {MAX_SEARCH_T}, got t={t}")
    if not 1 <= max_weighings <= MAX_SEARCH_WEIGHINGS:
        raise ValueError(
            f"search is bounded to 1..{MAX_SEARCH_WEIGHINGS} weighings, "
            f"got {max_weighings}"
        )
    return ProblemInstance(t, f, d)


def _splits(sizes):
    """All ways to route each class through one more weighing: per class a
    (left, right, off) composition, with both pans equally full and nonempty.
    Exactly one of each mirror pair (all pans swapped) is kept."""
    k = len(sizes)
    suffix = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        suffix[j] = suffix[j + 1] + sizes[j]
    results = []
    current = [None] * k

    def assign(j: int, balance: int, on_left: int) -> None:
        if abs(balance) > suffix[j]:
            return
        if j == k:
            if balance == 0 and on_left >= 1:
                lefts = tuple(part[0] for part in current)
                rights = tuple(part[1] for part in current)
                if lefts <= rights:
                    results.append(tuple(current))
            return
        n = sizes[j]
        for l in range(n + 1):
            for r in range(n - l + 1):
                current[j] = (l, r, n - l - r)
                assign(j + 1, balance + l - r, on_left + l)

    assign(0, 0, 0)
    del assign  # it refers to itself: free the splits now, not at the next gc
    return results


def _apply_split(classes, split):
    children = []
    for (itin, _), (l, r, o) in zip(classes, split):
        if l:
            children.append((itin + "L", l))
        if r:
            children.append((itin + "R", r))
        if o:
            children.append((itin + "O", o))
    return tuple(sorted(children))


def _pinned_class(sizes, vectors) -> bool:
    """True when some class is pinned: never fake in any consistent vector,
    or entirely fake in all of them."""
    for j, n in enumerate(sizes):
        if all(vec[j] == 0 for vec in vectors):
            return True
        if all(vec[j] == n for vec in vectors):
            return True
    return False


def _iter_witnesses(t: int, f: int, d: int, max_weighings: int):
    """Depth-first over (profile, outcome sequence) nodes, yielding every
    discreet-valid node in a fixed order.

    A node is skipped, subtree and all, when no size-f vector shows its
    outcomes or some class is pinned.  That loses no witness: a child's
    consistent vectors refine its parent's and each child class lies inside
    one parent class, so a pinned class stays pinned below it."""

    def recurse(classes, codes):
        if len(codes) >= max_weighings:
            return
        for split in _splits([n for _, n in classes]):
            child = _apply_split(classes, split)
            symbols = [itin for itin, _ in child]
            sizes = [n for _, n in child]
            for code in (0, 1, -1):
                child_codes = codes + (code,)
                vectors_f = consistent_count_vectors(symbols, sizes, child_codes, f)
                if not vectors_f or _pinned_class(sizes, vectors_f):
                    continue
                if not consistent_count_vectors(symbols, sizes, child_codes, d):
                    yield child, child_codes
                yield from recurse(child, child_codes)

    yield from recurse((("", t),), ())


def _expand_witness(instance: ProblemInstance, classes, codes) -> StrategyBundle:
    profile = ItineraryProfile(classes)
    symbols = [itin for itin, _ in profile.counts]
    sizes = [n for _, n in profile.counts]
    ranges = profile.class_ranges()
    vectors = consistent_count_vectors(symbols, sizes, codes, instance.f)
    # A vector's lexicographically first set takes the lowest coins of each
    # class; the first of these over all vectors is the first consistent set.
    placement = min(
        sorted(coin for itin, c in zip(symbols, vec) for coin in sorted(ranges[itin])[:c])
        for vec in vectors
    )
    cases = CaseStructure(
        tuple(
            tuple(Pile(ranges[itin], c) for itin, c in zip(symbols, vec) if c)
            for vec in vectors
        )
    )
    return StrategyBundle(
        name="search-witness",
        instance=instance,
        plan=profile.to_plan(),
        placement=frozenset(placement),
        cases=cases,
        expected_outcomes=tuple(Outcome.from_sign(c) for c in codes),
        expected_discreet=True,
        revealed_expected=frozenset(),
    )


def search_discreet(t: int, f: int, d: int, max_weighings: int):
    """Look for any plan with at most `max_weighings` weighings and any
    placement of f fakes that validly disproves d without revealing a single
    coin.  Returns a witness bundle, or None once the bounded space is
    exhausted (which says nothing about longer plans)."""
    instance = _checked_instance(t, f, d, max_weighings)
    for classes, codes in _iter_witnesses(t, f, d, max_weighings):
        return _expand_witness(instance, classes, codes)
    return None


def all_discreet_profiles(t: int, f: int, d: int, max_weighings: int) -> list:
    """Every profile admitting a discreet valid proof within the bound, in
    discovery order, deduplicated."""
    _checked_instance(t, f, d, max_weighings)
    seen: dict = {}
    for classes, _codes in _iter_witnesses(t, f, d, max_weighings):
        seen.setdefault(ItineraryProfile(classes), None)
    return list(seen)


# --- exact optimum for two fakes, one to disprove ---
#
# For f=2, d=1 a discreet plan keeps every weighing balanced, so the two
# fakes always sit in conjugate itinerary classes and the surviving options
# number sum(a_j * b_j) over the conjugate pair sizes (a_j, b_j).  Maximizing
# that sum over all pair distributions gives the least revealing strategy.
# Odd totals additionally force at least three pairs of odd combined size.
# A pair of combined size s >= 2 contributes floor(s/2) * ceil(s/2) at best,
# so the optimum is an unbounded knapsack over pair sizes whose state also
# tracks the number of odd pairs (capped at 3): O(t^2) and exact for every t.


def optimal_f2_new_possibilities(t: int):
    """Largest achievable number of surviving fake-pair options, with a
    maximizing pair distribution.  Returns None for odd t in {3, 5, 7}, where
    no admissible distribution exists."""
    if t < 3:
        raise ValueError(f"two fakes need at least 3 coins, got t={t}")
    # best[n][o]: (value, last pair size, previous o) over distributions of
    # n coins into pairs of size >= 2, o of them odd (capped at 3)
    best = [[None] * 4 for _ in range(t + 1)]
    best[0][0] = (0, 0, 0)
    for n in range(2, t + 1):
        for s in range(2, n + 1):
            gain = (s // 2) * ((s + 1) // 2)
            for o, prev in enumerate(best[n - s]):
                if prev is None:
                    continue
                odd = min(o + (s & 1), 3)
                if best[n][odd] is None or prev[0] + gain > best[n][odd][0]:
                    best[n][odd] = (prev[0] + gain, s, o)
    finals = [o for o in ((3,) if t % 2 else range(4)) if best[t][o] is not None]
    if not finals:
        return None
    odd = max(finals, key=lambda o: best[t][o][0])
    value = best[t][odd][0]
    sizes, n = [], t
    while n:
        _, s, odd = best[n][odd]
        sizes.append(s)
        n -= s
    sizes.sort(reverse=True)
    return value, tuple(((s + 1) // 2, s // 2) for s in sizes)


@dataclass(frozen=True)
class OddTItineraryReport:
    """Result of checking every bounded discreet witness at odd t against the
    structural conditions: at least 6 itinerary classes, all in conjugate
    pairs, at least 3 pairs of odd combined size."""

    t: int
    max_weighings: int
    witnesses_checked: int
    vacuous: bool
    all_satisfy: bool
    failures: tuple


def _satisfies_odd_conditions(profile: ItineraryProfile) -> bool:
    counts = dict(profile.counts)
    if len(counts) < 6:
        return False
    odd_pairs = 0
    seen: set = set()
    for itin, n in counts.items():
        if itin in seen:
            continue
        partner = conjugate(itin)
        if partner == itin or partner not in counts:
            return False  # unpaired class: not even a discreet shape
        seen.add(itin)
        seen.add(partner)
        if (n + counts[partner]) % 2 == 1:
            odd_pairs += 1
    return odd_pairs >= 3


def check_odd_t_itineraries(t: int, max_weighings: int) -> OddTItineraryReport:
    """Verify the odd-t structural conditions over all bounded discreet
    witnesses for two fakes with one to disprove; vacuously true when the
    bounded search finds none."""
    if t % 2 == 0:
        raise ValueError(f"this check applies to odd coin counts, got t={t}")
    if t > 11:
        raise ValueError(f"bounded to t <= 11, got t={t}")
    if not 1 <= max_weighings <= 3:
        raise ValueError(f"bounded to 1..3 weighings, got {max_weighings}")
    profiles = all_discreet_profiles(t, 2, 1, max_weighings)
    failures = tuple(p for p in profiles if not _satisfies_odd_conditions(p))
    return OddTItineraryReport(
        t=t,
        max_weighings=max_weighings,
        witnesses_checked=len(profiles),
        vacuous=not profiles,
        all_satisfy=not failures,
        failures=failures,
    )
