"""Independent brute-force oracles and generators shared by the test suite.

Everything here enumerates subsets or pair partitions directly, on purpose:
these are the slow, obviously-correct references the library's counting
paths are checked against.
"""

import itertools
import random

from discreet_weighings import Outcome, Weighing, WeighingPlan

# The oracle's own copy of the outcome signs, kept apart from
# `Outcome.sign` on purpose so that a wrong sign in the library cannot also
# fool the reference it is checked against.
OUTCOME_CODE = {
    Outcome.BALANCED: 0,
    Outcome.LEFT_LIGHTER: 1,
    Outcome.RIGHT_LIGHTER: -1,
}


def brute_consistent(t, s, transcript):
    """All size-s fake sets matching the transcript, by trying every subset."""
    pans = [(w.left, w.right) for w in transcript.plan.weighings]
    codes = [OUTCOME_CODE[o] for o in transcript.outcomes]
    hits = set()
    for combo in itertools.combinations(range(t), s):
        fakes = frozenset(combo)
        for (left, right), code in zip(pans, codes):
            diff = len(fakes & left) - len(fakes & right)
            if (diff > 0) - (diff < 0) != code:
                break
        else:
            hits.add(fakes)
    return hits


def brute_optimal_pairs(t):
    """Maximum of sum(a_j * b_j) over all multisets of pairs with
    sum(a_j + b_j) = t, requiring >= 3 odd-total pairs when t is odd.
    Enumerates every pair multiset outright; only sane for small t."""
    need_odd = 3 if t % 2 else 0
    pairs = [(a, b) for a in range(t - 1, 0, -1) for b in range(a, 0, -1) if a + b <= t]
    best = [None]

    def extend(start, remaining, odd_count, value):
        if remaining == 0:
            if odd_count >= need_odd and (best[0] is None or value > best[0]):
                best[0] = value
            return
        for i in range(start, len(pairs)):
            a, b = pairs[i]
            if a + b > remaining:
                continue
            extend(i, remaining - a - b, odd_count + ((a + b) & 1), value + a * b)

    extend(0, t, 0, 0)
    return best[0]


def labeled_plans(t, max_weighings):
    """Every labeled plan with equal, disjoint, nonempty pans and at most
    max_weighings weighings.  No symmetry reduction whatsoever; this is the
    ground-truth plan space for tiny t."""
    singles = []
    for size in range(1, t // 2 + 1):
        for left in itertools.combinations(range(t), size):
            rest = [c for c in range(t) if c not in left]
            for right in itertools.combinations(rest, size):
                singles.append(Weighing(frozenset(left), frozenset(right)))
    for length in range(1, max_weighings + 1):
        for combo in itertools.product(singles, repeat=length):
            yield WeighingPlan(t, combo)


def random_plan(rng: random.Random, t: int, num_weighings: int) -> WeighingPlan:
    """A random plan with equal, disjoint, nonempty pans."""
    weighings = []
    for _ in range(num_weighings):
        size = rng.randint(1, t // 2)
        coins = rng.sample(range(t), 2 * size)
        weighings.append(Weighing(frozenset(coins[:size]), frozenset(coins[size:])))
    return WeighingPlan(t, tuple(weighings))


def random_fakes(rng: random.Random, t: int, f: int) -> frozenset:
    return frozenset(rng.sample(range(t), f))


def brute_count_vectors(symbols, sizes, codes, size):
    """Every composition of `size` over the classes (`sizes[j]` coins
    following itinerary `symbols[j]`) whose pan differences show `codes`,
    in lexicographic order, by generating all of them and filtering."""
    k = len(symbols)
    suffix = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        suffix[j] = suffix[j + 1] + sizes[j]

    def matches(vec):
        for i, code in enumerate(codes):
            diff = 0
            for j in range(k):
                if symbols[j][i] == "L":
                    diff += vec[j]
                elif symbols[j][i] == "R":
                    diff -= vec[j]
            if (diff > 0) - (diff < 0) != code:
                return False
        return True

    found = []
    vec = [0] * k

    def assign(j, remaining):
        if remaining > suffix[j]:
            return
        if j == k:
            if matches(vec):
                found.append(tuple(vec))
            return
        for c in range(min(remaining, sizes[j]) + 1):
            vec[j] = c
            assign(j + 1, remaining - c)
        vec[j] = 0

    assign(0, size)
    return found
