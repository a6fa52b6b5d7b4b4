"""Independent brute-force oracles and generators shared by the test suite.

Everything here enumerates subsets or pair partitions directly, on purpose:
these are the slow, obviously-correct references the library's counting
paths are checked against.  `dense_count_vectors` is not one: it shows the
library's fold in the form `brute_count_vectors` gives.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

from discreet_weighings import CaseStructure, Outcome, Pile, Weighing, WeighingPlan, itinerary_of
from discreet_weighings.judge import _routing, consistent_count_vectors

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


def brute_best_guess(sets):
    """The best one-coin guess against an explicit family of fake sets, all
    equally likely: (coin, share of the sets holding it), ties broken by
    lowest index, counting coin by coin."""
    sets = [frozenset(s) for s in sets]
    if not sets:
        raise ValueError("cannot guess against an empty family of fake sets")
    if not any(sets):
        raise ValueError("the consistent sets contain no coins to guess")
    counts = Counter(coin for s in sets for coin in s)
    top = max(counts.values())
    coin = min(c for c, n in counts.items() if n == top)
    return coin, Fraction(top, len(sets))


def consistent_family_from_cases(cases):
    """Expand a case structure into the explicit family of fake sets it
    allows: every way of choosing each pile's fakes, across all cases."""
    family = set()
    for case in cases.cases:
        pools = [
            list(itertools.combinations(sorted(p.coins), p.fakes)) for p in case
        ]
        for choice in itertools.product(*pools):
            family.add(frozenset(itertools.chain.from_iterable(choice)))
    return family


def _solve_linear(rows, rhs):
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


def coin_rows(structure):
    """Each coin at risk's chance of being fake in each case, coin by coin,
    in the order the cases and their piles first list the coins."""
    k = len(structure.cases)
    per_coin = {}
    for c, case in enumerate(structure.cases):
        for pile in case:
            for coin in pile.coins:
                per_coin.setdefault(coin, [Fraction(0)] * k)[c] = Fraction(pile.fakes, len(pile.coins))
    return {coin: tuple(row) for coin, row in per_coin.items()}


def vertex_minimax(structure):
    """The lawyer's minimax (probabilities, value) by trying every vertex of
    { p in simplex, v >= every coin row . p }: the simplex equality plus k
    tight constraints among coin rows (row.p = v) and nonnegativity
    (p_c = 0), each subset solved exactly, keeping the first feasible vertex
    with the least v.  Exponential in the number of cases k."""
    k = len(structure.cases)
    zero, one = Fraction(0), Fraction(1)
    rows = sorted(set(coin_rows(structure).values()))
    simplex_row = [one] * k + [zero]
    candidates = [tuple(row) + (-one,) for row in rows]
    candidates += [tuple(one if i == c else zero for i in range(k)) + (zero,) for c in range(k)]
    best = None
    for chosen in itertools.combinations(candidates, k):
        solution = _solve_linear([simplex_row] + [list(row) for row in chosen], [one] + [zero] * k)
        if solution is None:
            continue
        p, v = solution[:k], solution[k]
        if any(x < 0 for x in p):
            continue
        if any(sum(a * x for a, x in zip(row, p)) > v for row in rows):
            continue
        if best is None or v < best[1]:
            best = (tuple(p), v)
    return best


def fraction_simplex_minimax(structure):
    """The lawyer's minimax (probabilities, value) by the packing LP
    max sum(q) s.t. row.q <= 1, q >= 0 over the distinct coin rows, sorted,
    on a full tableau of Fractions (columns q, then one slack per row) under
    Bland's rule, lowest entering column and lowest leaving basic index on
    ratio ties.  p = q / sum(q) and the value is 1 / sum(q).  Every pivot
    divides exactly, so this is the reference for a faster exact simplex
    that must reach the same vertex."""
    rows = sorted(set(coin_rows(structure).values()))
    k, m = len(structure.cases), len(rows)
    zero, one = Fraction(0), Fraction(1)
    tableau = [
        list(row) + [one if j == i else zero for j in range(m)] + [one]
        for i, row in enumerate(rows)
    ]
    cost = [-one] * k + [zero] * (m + 1)  # reduced costs of minimising -sum(q)
    basis = list(range(k, k + m))
    while True:
        enter = next((j for j, c in enumerate(cost[:-1]) if c < 0), None)
        if enter is None:
            break
        _, _, i = min(
            (line[-1] / line[enter], basis[r], r)
            for r, line in enumerate(tableau)
            if line[enter] > 0
        )
        pivot = tableau[i][enter]
        tableau[i] = [x / pivot for x in tableau[i]]
        for line in tableau + [cost]:
            factor = line[enter]
            if factor and line is not tableau[i]:
                line[:] = [x - factor * y for x, y in zip(line, tableau[i])]
        basis[i] = enter
    q = [zero] * k
    for r, j in enumerate(basis):
        if j < k:
            q[j] = tableau[r][-1]
    value = 1 / sum(q)
    return tuple(x * value for x in q), value


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


def brute_pair_count(transcript):
    """Number of size-2 fake sets matching the transcript, coin by coin: a
    coin's partners are the coins whose pan in every weighing makes the pair
    show that weighing's sign.  Sets of coins are Python int bitmasks, so
    thousands of coins stay cheap."""
    t = transcript.plan.t
    everyone = (1 << t) - 1
    tables = []
    for w, outcome in zip(transcript.plan.weighings, transcript.outcomes):
        on = {1: sum(1 << c for c in w.left), -1: sum(1 << c for c in w.right)}
        on[0] = everyone & ~on[1] & ~on[-1]
        code = OUTCOME_CODE[outcome]
        allowed = {pan: 0 for pan in on}
        for pan, other in itertools.product(on, on):
            if (pan + other > 0) - (pan + other < 0) == code:
                allowed[pan] |= on[other]
        tables.append((w, allowed))
    pairs = 0
    for coin in range(t):
        partners = everyone & ~(1 << coin)
        for w, allowed in tables:
            partners &= allowed[1 if coin in w.left else -1 if coin in w.right else 0]
        pairs += bin(partners).count("1")
    return pairs // 2


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


def brute_discreet_instances(plans):
    """The (f, d) with 0 < f < t for which some plan in `plans` and some
    placement of f fakes validly prove f against d without pinning a coin
    (fake in every consistent set, or in none).  Every fake set of every
    size is simulated on every plan and grouped by the outcomes it shows."""
    found = set()
    for plan in plans:
        t = plan.t
        pans = [(w.left, w.right) for w in plan.weighings]
        shows = {}  # (size, outcome signs) -> the fake sets showing them
        for size in range(t + 1):
            for combo in itertools.combinations(range(t), size):
                fakes = frozenset(combo)
                signs = []
                for left, right in pans:
                    diff = len(fakes & left) - len(fakes & right)
                    signs.append((diff > 0) - (diff < 0))
                shows.setdefault((size, tuple(signs)), []).append(fakes)
        for (f, signs), sets in shows.items():
            if not 0 < f < t:
                continue
            if frozenset.intersection(*sets) or len(frozenset.union(*sets)) < t:
                continue
            for d in range(t + 1):
                if d != f and (d, signs) not in shows:
                    found.add((f, d))
    return found


def random_plan(rng: random.Random, t: int, num_weighings: int) -> WeighingPlan:
    """A random plan with equal, disjoint, nonempty pans."""
    weighings = []
    for _ in range(num_weighings):
        size = rng.randint(1, t // 2)
        coins = rng.sample(range(t), 2 * size)
        weighings.append(Weighing(frozenset(coins[:size]), frozenset(coins[size:])))
    return WeighingPlan(t, tuple(weighings))


def itinerary_groups(plan):
    """The plan's coins grouped by itinerary, coin by coin with
    `itinerary_of`, sorted by itinerary."""
    groups = {}
    for coin in range(plan.t):
        groups.setdefault(itinerary_of(plan, coin), set()).add(coin)
    return {itin: frozenset(coins) for itin, coins in sorted(groups.items())}


def many_class_plan():
    """Twelve random 500 v 500 weighings of 1500 coins, which put nearly
    every coin in an itinerary class of its own (1,499 classes)."""
    rng = random.Random(1)
    weighings = []
    for _ in range(12):
        coins = rng.sample(range(1500), 1000)
        weighings.append(Weighing(frozenset(coins[:500]), frozenset(coins[500:])))
    return WeighingPlan(1500, tuple(weighings))


def random_fakes(rng: random.Random, t: int, f: int) -> frozenset:
    return frozenset(rng.sample(range(t), f))


def random_case_structure(rng: random.Random, t: int, k: int):
    """k random cases over coins 0..t-1, each of disjoint piles holding the
    same total number of fakes."""
    total = rng.randint(1, t)
    cases = []
    for _ in range(k):
        coins = rng.sample(range(t), rng.randint(total, t))
        piles = rng.randint(1, total)
        cuts = sorted(rng.sample(range(1, len(coins)), piles - 1))
        groups = [coins[i:j] for i, j in zip([0] + cuts, cuts + [len(coins)])]
        fakes = [1] * piles
        for _ in range(total - piles):
            fakes[rng.choice([i for i in range(piles) if fakes[i] < len(groups[i])])] += 1
        cases.append(tuple(Pile(frozenset(g), n) for g, n in zip(groups, fakes)))
    return CaseStructure(tuple(cases))


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


def sparse(vec):
    """A dense class count vector in the library's sparse form: (class,
    fakes) for each class that holds a fake, in class order."""
    return tuple((j, c) for j, c in enumerate(vec) if c)


def dense_count_vectors(symbols, sizes, codes, size):
    """The library's fold (`judge.consistent_count_vectors`) in the form
    `brute_count_vectors` gives: the classes in any order, and one dense
    vector per way, indexed like the input classes, in lexicographic order."""
    order = sorted(range(len(symbols)), key=symbols.__getitem__)
    if symbols:
        routing = _routing([symbols[j] for j in order], [sizes[j] for j in order])
    else:
        routing = ((),) * len(codes)  # each weighing splits no class
    found = []
    for vec in consistent_count_vectors(sum(sizes), routing, codes, size):
        dense = [0] * len(symbols)
        for j, c in vec:
            dense[order[j]] = c
        found.append(tuple(dense))
    return sorted(found)


def exhaustive_witnesses(t, f, d, max_weighings):
    """The bounded search's witness stream with no pruning: walk every
    (profile, outcome sequence) node in the library's order and judge each
    one on its own with `brute_count_vectors`, yielding (classes, codes) for
    every node with a discreet valid proof."""
    from discreet_weighings.search import _apply_split, _splits

    def discreet(sizes, vectors_f):
        return all(
            any(vec[j] for vec in vectors_f) and any(vec[j] < n for vec in vectors_f)
            for j, n in enumerate(sizes)
        )

    def walk(classes, codes):
        if len(codes) >= max_weighings:
            return
        for split in _splits([n for _, n in classes]):
            child = _apply_split(classes, split)
            symbols = [itin for itin, _ in child]
            sizes = [n for _, n in child]
            for code in (0, 1, -1):
                child_codes = codes + (code,)
                vectors_f = brute_count_vectors(symbols, sizes, child_codes, f)
                if not vectors_f:
                    continue  # no placement of f fakes shows these outcomes
                if discreet(sizes, vectors_f) and not brute_count_vectors(
                    symbols, sizes, child_codes, d
                ):
                    yield child, child_codes
                yield from walk(child, child_codes)

    yield from walk((("", t),), ())


def brute_witness_bundle(t, f, d, classes, codes):
    """A witness node (classes, codes) expanded to the bundle
    `search_discreet` gives, from its size-f vectors by brute force, so its
    cases are checked against the enumerator, not the library's fold."""
    from discreet_weighings import ProblemInstance
    from discreet_weighings.search import _expand_witness

    vectors = brute_count_vectors([itin for itin, _ in classes], [n for _, n in classes], codes, f)
    return _expand_witness(ProblemInstance(t, f, d), classes, codes, [sparse(vec) for vec in vectors])


def exhaustive_search_discreet(t, f, d, max_weighings):
    """The first witness of `exhaustive_witnesses`, expanded to the same
    bundle as `search_discreet`, or None: a pruning rule that drops a
    witness shows up as a different (or missing) first witness."""
    for classes, codes in exhaustive_witnesses(t, f, d, max_weighings):
        return brute_witness_bundle(t, f, d, classes, codes)
    return None


def least_splits(splits, moves):
    """The splits a search node walks, by the per-split image rule: with
    `moves` the class permutations of the transforms fixing the node
    (`perm[j]` is the class that class j maps to), a split is walked
    unless a move, with or without swapping the pans, maps it onto a
    lesser split.  Each move's inverse is a move too, so indexing the
    split by a move gives the same images as routing by it."""
    return [
        split
        for split in splits
        if not any(
            image < split or tuple((r, l, o) for l, r, o in image) < split
            for image in (tuple(split[j] for j in perm) for perm in moves)
        )
    ]
