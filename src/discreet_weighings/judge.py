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
uniform best guess need.  Nothing here lists subsets, and the verdict, the
privacy report and the guess on one transcript share one pass over the
size-f and size-d vectors:

    >>> from discreet_weighings import ProblemInstance, build_official
    >>> inst = ProblemInstance(80, 3, 2)
    >>> bundle = build_official(inst)
    >>> transcript = bundle.transcript()
    >>> verify_proof(inst, transcript, bundle.placement)
    ProofVerdict(valid=True, consistent_count_f=8000, consistent_count_d=0)
    >>> classify_privacy(inst, transcript).discreet
    True
    >>> uniform_best_guess(3, transcript)  # coin 0 is fake in 1 of every 20 surviving sets
    (0, Fraction(1, 20))

`consistent_count_vectors` finds the vectors by one refinement folded over
the weighings.  It starts from a single class holding every coin, with all
the fakes in it.  Each weighing splits every class into its left, right
and off-scale coins (`model._route`, which the search's images use too).
A transcript is routed once (`_routing`, a split per weighing), and every
size's fold follows that routing.  `_refine` spreads a vector's fakes in
a class over the parts in every way and keeps only the children whose
pan difference shows the weighing's sign.  It reads a class's ways,
already numbered as child classes, from `_parts`, whose cache is their
only memo: neither a fold nor a search walk keeps a table of its own.
After the last weighing the classes are the itinerary classes, in
itinerary order.  Vectors are sparse, listing only the classes that hold
a fake, so their cost follows the fake count, not the number of classes.
The bounded search takes `_refine` and `_parts` from the judge: it
refines its nodes' vectors with `_refine`, one weighing per level, and
reads the span of pan differences a class can show off its `_parts`.

Each `Transcript` object keeps what the judge has worked out of it (`_tally`):
its classes, their routing and the signs shown, and one summary of the
vectors per hypothesis size.  So `verify_proof`, `classify_privacy` and
`uniform_best_guess` on one transcript partition and route its plan once
and fold each size once.  The memo lives on the object and is freed with
it; an equal but distinct transcript is judged afresh.  The coin count is
the plan's: only `verify_proof` and `classify_privacy`, whose instance
brings its own t, check that t against it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .model import (
    ProblemInstance,
    Transcript,
    _checked_coins,
    _checked_int,
    _coin_set,
    _route,
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


def _routing(symbols, sizes) -> tuple:
    """Each weighing's split of the classes before it, when class j has
    `sizes[j]` coins and itinerary `symbols[j]` (at least one class): a
    fold of `_route` from one group of every class, whose nonempty parts,
    in L, O, R order, are the groups of the next weighing."""
    groups = [range(len(symbols))]
    routing = []
    for i in range(len(symbols[0])):
        parts, split = _route(groups, [itin[i] for itin in symbols], sizes)
        routing.append(split)
        groups = [part for group in parts for part in group if part]
    return tuple(routing)


@functools.lru_cache(maxsize=None)
def _parts(b: int, l: int, r: int, o: int, c: int) -> tuple:
    """Every way a class routed (l, r, o) holds c fakes, as (the (child
    class, count) of each part that holds a fake, fakes on the left minus
    fakes on the right).  The parts are the class's nonempty L, O, R parts,
    numbered from its first child class `b`.

    This cache is the only memo of a class's ways: every judge fold and
    every search walk in the process shares it, and the search's spans
    (`search._span`) are read off it.  Callers clamp l, r and o
    to c, which keeps whether each part is empty, so `b` is the only
    argument that grows with the plan.  The entries are bounded by the
    largest fake count and the largest class count asked about, not by the
    number of calls: about 680 entries and 390 KiB after every request of
    the four bench workloads at three seeds, and 4,400 entries and 1.6 MB
    after counting the size-2 and size-3 sets of a plan with 1,499
    classes.  One entry holds O(c²) ways, and every entry stays until
    `_parts.cache_clear()`: after `count_consistent(750, ·)` on one
    500 v 500 weighing the cache holds about 63 MB."""
    at_o = b + (1 if l else 0)
    at_r = at_o + (1 if o else 0)
    ways = []
    for x in range(min(l, c) + 1):
        for y in range(min(r, c - x) + 1):
            m = c - x - y
            if m <= o:
                parts = ((b, x), (at_o, m), (at_r, y))
                ways.append((tuple((i, n) for i, n in parts if n), x - y))
    return tuple(ways)


def _refine(vectors, split) -> dict:
    """The child vectors of sparse class count `vectors` under one more
    weighing that routes class j's coins (l, r, o) = `split[j]`, bucketed
    by the sign that weighing shows.  A sparse vector lists (class, fakes)
    for each class that holds a fake, in class order.  Child classes are
    numbered per parent class by its nonempty L, O, R parts, which is
    itinerary order, since "L" < "O" < "R"; `_parts` gives each class's
    ways already numbered so."""
    bases = []
    base = 0
    for l, r, o in split:
        bases.append(base)
        base += (l > 0) + (r > 0) + (o > 0)
    buckets = {0: [], 1: [], -1: []}
    for vec in vectors:
        partial = [((), 0)]
        for j, c in vec:
            l, r, o = split[j]
            # no part holds more than c fakes, so clamping changes no way
            ways = _parts(bases[j], l if l < c else c, r if r < c else c, o if o < c else c, c)
            partial = [(head + part, diff + delta) for head, diff in partial for part, delta in ways]
        for child, diff in partial:
            buckets[(diff > 0) - (diff < 0)].append(child)
    return buckets


def consistent_count_vectors(t: int, routing, codes, size: int) -> list:
    """All ways to spread `size` fakes over the itinerary classes of `t`
    coins so that every weighing shows the given outcome sign, as sparse
    vectors whose classes are numbered in itinerary order.

    `routing[i]` is weighing i's split of the classes before it, their
    (left, right, off) coins in itinerary order, as `_routing` folds them
    with `model._route`, and `codes[i]` the sign of (fakes on left - fakes
    on right) it showed.
    The vectors are `_refine` folded over the weighings from one class of
    every coin.
    """
    if not 0 <= size <= t:
        return []
    vectors = [((0, size),)] if size else [()]
    for split, code in zip(routing, codes):
        vectors = _refine(vectors, split)[code]
        if not vectors:
            break
    return vectors


@dataclass(frozen=True)
class _Tally:
    """The consistent size-s sets of one transcript, summarised per
    itinerary class.

    A sparse vector `vec` of (class j, fakes c) pairs stands for ways(vec) =
    prod C(n_j, c) sets, and `weights[j]` = sum of ways(vec) * c counts the
    (set, coin) pairs with the coin fake and in class j.  So each coin of
    class j is fake in weights[j] / n_j of the `count` sets."""

    classes: list  # (itinerary, coins), sorted by itinerary
    count: int
    weights: tuple

    def privacy(self) -> PrivacyReport:
        """A class is revealed real when it holds no fake in any consistent
        set, and revealed fake when it is all fake in every one."""
        revealed_real = []
        revealed_fake = []
        for (_, coins), weight in zip(self.classes, self.weights):
            if not weight:
                revealed_real.extend(coins)
            elif weight == len(coins) * self.count:
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


def _refuse_other_t(t: int, transcript: Transcript) -> None:
    """Refuse an instance's coin count `t` that is not the transcript's
    plan's: the first check of `verify_proof` and `classify_privacy`."""
    if _checked_int(t, "t") != transcript.plan.t:
        raise ValueError(f"t={t} does not match the plan's t={transcript.plan.t}")


def _tally(transcript: Transcript, size: int) -> _Tally:
    """The `_Tally` of the transcript's consistent size-`size` sets, worked
    out at most once per transcript object.

    The object's memo (its _judged attribute) holds its request, made on the
    first call: the plan's (itinerary, coins) classes, sorted by itinerary,
    their `_routing` and the sign each weighing showed.  It also holds one
    tally per size asked for.  The plan was checked when it was built and
    fixes t, so the one check left runs on every call: the size, in 0..t.
    A step that raises stores nothing."""
    t = transcript.plan.t
    judged = transcript._judged
    request = judged.get("request")
    if request is None:
        classes = list(partition_by_itinerary(transcript.plan).items())
        routing = _routing([itin for itin, _ in classes], [len(coins) for _, coins in classes])
        request = judged["request"] = (classes, routing, tuple(o.sign for o in transcript.outcomes))
    # checked before the lookup: True and 3.0 would find the tallies of 1 and 3
    if not 0 <= _checked_int(size, "hypothesis size") <= t:
        raise ValueError(f"hypothesis size {size} outside 0..{t}")
    tally = judged.get(size)
    if tally is None:
        classes, routing, codes = request
        sizes = [len(coins) for _, coins in classes]
        count = 0
        weights = [0] * len(classes)
        for vec in consistent_count_vectors(t, routing, codes, size):
            ways = 1
            for j, c in vec:
                ways *= comb(sizes[j], c)
            count += ways
            for j, c in vec:
                weights[j] += ways * c
        tally = judged[size] = _Tally(classes, count, tuple(weights))
    return tally


def count_consistent(s: int, transcript: Transcript) -> int:
    """Number of size-s fake sets consistent with the transcript, over the
    coins of its plan, computed from class count vectors without storing
    any subset."""
    return _tally(transcript, s).count


def uniform_best_guess(s: int, transcript: Transcript):
    """The judge's best one-coin guess when every consistent size-s set is
    equally likely: (coin, success probability), ties broken by lowest
    index.  A coin's share of the sets follows from its class's share, so
    the sets are never listed."""
    return _tally(transcript, s).best_guess()


def verify_proof(
    instance: ProblemInstance, transcript: Transcript, placement
) -> ProofVerdict:
    """Decide whether the transcript proves "exactly f fakes" to a judge whose
    prior allows only the counts d and f.  The plan was checked when it was
    built.  The instance's t is checked against the plan's first, then the
    whole placement (`model._coin_set`, which refuses a repeated coin, its
    size, then `model._checked_coins`: ints in 0..t-1), and only then are
    the sets counted."""
    _refuse_other_t(instance.t, transcript)
    placement = _coin_set(placement, "placement")
    if len(placement) != instance.f:
        raise ValueError(
            f"placement has {len(placement)} coins but the instance has f={instance.f}"
        )
    _checked_coins(placement, "placement", instance.t)
    count_f = count_consistent(instance.f, transcript)
    count_d = count_consistent(instance.d, transcript)
    placement_consistent = all(
        w.outcome(placement) is o
        for w, o in zip(transcript.plan.weighings, transcript.outcomes)
    )
    valid = placement_consistent and count_f >= 1 and count_d == 0
    return ProofVerdict(valid, count_f, count_d)


def classify_privacy(instance: ProblemInstance, transcript: Transcript) -> PrivacyReport:
    """Split coins into revealed-real (in no consistent set), revealed-fake
    (in all of them), and undetermined.  Discreet means neither set is
    inhabited.  Only meaningful after a valid proof.  The instance's t is
    checked against the plan's first."""
    _refuse_other_t(instance.t, transcript)
    tally_f = _tally(transcript, instance.f)
    if not tally_f.count or _tally(transcript, instance.d).count:
        raise InvalidProofError(
            "privacy classification is only defined for a valid proof"
        )
    return tally_f.privacy()
