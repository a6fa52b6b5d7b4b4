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
A node's consistent size-f and size-d class vectors are never counted
from scratch: they are its parent's vectors, each refined once over the
new weighing's split by the judge's counting step (`judge._refine`) and
bucketed by the sign that weighing shows, so one pass serves all three
outcomes.  A node that survives the size-f filter is a witness when it has
no size-d vector.  A witness carries its size-f vectors, and its bundle's
cases are read off them.

At the last weighing the order is reversed.  A leaf is a witness only when
no size-d set shows its code, so where a split's children are leaves the
walk first reads which signs the node's size-d vectors can show over it,
from the span of pan differences each class allows, without building a
child vector (`_signs`).  A split on which size-d sets show all three
signs is passed over with no size-f refinement, and otherwise only the
codes left unshown are pin-tested.  Internal nodes keep the first order,
since their children need both sizes of vectors for their states.

Every walk meets each orbit of nodes under reordering the weighings and
swapping the pans of any of them once.  A path's steps are labeled by their
splits and codes, and the walk meets nodes in label order, so an internal
node is walked only when no image of it that the walk could meet has lesser
labels (the canonical test).  A node also skips a split when a transform
fixing it maps a split it already walked onto that split or its mirror.
`search_discreet` returns the first witness, which is the unpruned walk's
first.  The listings of every profile expand each orbit's witnesses into
the labeled nodes the unpruned walk would meet and sort them back into its
order by their labels, without walking each labeled node.  The judge's
counting step is all the search takes from the judge.

A walk also remembers the states it has shown to hold no witness below
them, as nogood recording does.  A node's state is its depth, its class
sizes and its sets of size-f and size-d vectors, which are all that decide
whether a witness lies below it.  A node whose state failed before is
skipped with its subtree.  A state is recorded when its node's subtree
yielded nothing and the walk has yielded no witness yet.  Until then every
skip, by pin, canonical test or state, passes over a subtree that holds no
witness, by induction over the walk, so a subtree that yielded nothing
holds none.  After the first witness the canonical test may pass over
witnesses met earlier, so no state is recorded; the first witness and the
listings are unchanged.

Every result is relative to the weighing bound it was run with: exhausting
the search certifies that no plan with at most `max_weighings` weighings
works, nothing more.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .judge import _refine
from .metrics import CaseStructure, Pile
from .model import (
    ITINERARY_SYMBOLS,
    Outcome,
    ProblemInstance,
    Weighing,
    WeighingPlan,
    _checked_int,
    _route,
    conjugate,
    partition_by_itinerary,
)
from .strategies import StrategyBundle, _contiguous_piles

MAX_SEARCH_T = 12
MAX_SEARCH_WEIGHINGS = 4
_CODES = (0, 1, -1)  # the order the walk tries a weighing's outcomes in


@dataclass(frozen=True)
class ItineraryProfile:
    """Coin counts per itinerary for a fixed number of weighings, with every
    pan pair equally loaded."""

    counts: tuple

    def __post_init__(self) -> None:
        counts = tuple(sorted((str(itin), _checked_int(n, f"class {itin!r} count")) for itin, n in self.counts))
        object.__setattr__(self, "counts", counts)
        if not counts:
            raise ValueError("a profile needs at least one itinerary class")
        length = len(counts[0][0])
        previous = None
        for itin, n in counts:
            if len(itin) != length:
                raise ValueError("itineraries of mixed lengths")
            if not set(itin) <= set(ITINERARY_SYMBOLS):
                raise ValueError(f"itinerary {itin!r} has symbols outside L/R/O")
            if n < 1:
                raise ValueError(f"class {itin!r} has count {n}")
            if itin == previous:  # sorted, so a repeat is adjacent
                raise ValueError(f"itinerary {itin!r} is listed more than once")
            previous = itin
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
        return dict(zip((itin for itin, _ in self.counts), _contiguous_piles(n for _, n in self.counts)))

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
    instance = ProblemInstance(t, f, d)
    if instance.t > MAX_SEARCH_T:
        raise ValueError(f"search is bounded to t <= {MAX_SEARCH_T}, got t={t}")
    if not 1 <= _checked_int(max_weighings, "max_weighings") <= MAX_SEARCH_WEIGHINGS:
        raise ValueError(
            f"search is bounded to 1..{MAX_SEARCH_WEIGHINGS} weighings, "
            f"got {max_weighings}"
        )
    return instance


def _mirror(split) -> tuple:
    """The split with the pans swapped."""
    return tuple((r, l, o) for l, r, o in split)


def _splits(sizes):
    """All ways to route each class through one more weighing: per class a
    (left, right, off) composition, with both pans equally full and nonempty,
    in lexicographic order.  Exactly one of each mirror pair is kept: these
    are exactly the balanced splits with `split <= _mirror(split)`.  The
    mirrored branches are cut as they are generated, at the first class
    whose pans differ."""
    k = len(sizes)
    suffix = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        suffix[j] = suffix[j + 1] + sizes[j]
    results = []
    current = [None] * k

    def assign(j: int, balance: int, on_left: int, tied: bool) -> None:
        # `tied`: every class so far puts as many coins left as right, so
        # the next class that differs must put fewer on the left
        if abs(balance) > suffix[j]:
            return
        n = sizes[j]
        if j == k - 1:
            # the last class evens the pans: r = l + balance
            for l in range(max(0, -balance), (n - balance) // 2 + 1):
                if on_left + l:
                    current[j] = (l, l + balance, n - 2 * l - balance)
                    results.append(tuple(current))
            return
        for l in range(n + 1):
            for r in range(l if tied else 0, n - l + 1):
                current[j] = (l, r, n - l - r)
                assign(j + 1, balance + l - r, on_left + l, tied and l == r)

    assign(0, 0, 0, True)
    del assign  # it refers to itself: free the splits now, not at the next gc
    return results


def _apply_split(classes, split):
    """The child classes: each class's nonempty parts in L, O, R order, so
    sorted classes give sorted children, numbered as `judge._refine` does."""
    children = []
    for (itin, _), (l, r, o) in zip(classes, split):
        if l:
            children.append((itin + "L", l))
        if o:
            children.append((itin + "O", o))
        if r:
            children.append((itin + "R", r))
    return tuple(children)


def _pinned_class(sizes, vectors) -> bool:
    """True when some class is pinned: never fake in any consistent sparse
    vector, or entirely fake in all of them."""
    if sum(map(len, vectors)) < len(sizes):
        return True  # too few (class, fakes) pairs for every class to hold one
    if any(c == sizes[j] for j, c in set(vectors[0]).intersection(*vectors)):
        return True
    return len(dict(itertools.chain.from_iterable(vectors))) < len(sizes)


def _span(l, r, o, c):
    """The pan differences (fakes left minus fakes right) a class routed
    (l, r, o) can show with c fakes, as (least, greatest, step): every
    value from the least to the greatest in that step.  For each number of
    fakes on the pans, the differences run in steps of 2 between ends that
    move by 1 from one number to the next, so together they leave no gap,
    unless the off part must hold a fixed number."""
    hi = min(l, c)
    hi -= max(0, c - hi - o)
    lo = min(r, c)
    lo = max(0, c - lo - o) - lo
    return lo, hi, 2 if min(o, c) == max(0, c - l - r) else 1


def _signs(vectors, split, spans: dict) -> set:
    """The signs that some child of `vectors` over `split` shows, which are
    the codes whose buckets `judge._refine` would fill, without building a
    child.  A vector's children show every sum of one difference per class
    holding a fake; the sum of spans is a span, in steps of 2 only when
    every class's is.  `spans` keeps each (routing, fakes) span for the
    walk; the caller owns it and frees it with the walk."""
    shown = set()
    for vec in vectors:
        lo = hi = 0
        step = 2
        for j, c in vec:
            key = split[j], c
            span = spans.get(key)
            if span is None:
                span = spans[key] = _span(*split[j], c)
            lo += span[0]
            hi += span[1]
            if span[2] == 1:
                step = 1
        if hi > 0:
            shown.add(1)
        if lo < 0:
            shown.add(-1)
        if lo <= 0 <= hi and (step == 1 or lo % 2 == 0):
            shown.add(0)
        if len(shown) == 3:
            break
    return shown


def _images(classes, codes, bound=None):
    """Every walk-form image of a node, as (its class order, its labels).

    An image reorders the node's weighings and swaps the pans of any of
    them, which negates that weighing's code.  It is in walk form when each
    weighing's split of the classes before it is at most its mirror, as
    `_splits` keeps them, and each such step is labeled (its split, the
    rank of its code in `_CODES`).  The walk tries splits in `_splits` order
    and codes in `_CODES` order, and yields each node before its children,
    so it meets nodes in the order of their labels.  A node's own path has
    the identity's labels.

    Each step routes groups of the node's classes into their parts in L,
    O, R order (`model._route`), as `_apply_split` does, so the groups stay
    in the image's itinerary order.  The class order lists the node's class that each
    image class comes from.  With `bound` labels, only steps labeled as the
    bound's are followed, and the first step with a lesser label is
    yielded as the labels up to it, with no class order, and ends the pass:
    any walk-form prefix completes to a full image, since each weighing
    left can take whichever orientation is at most its mirror."""
    sizes = [n for _, n in classes]
    columns = [[itin[p] for itin, _ in classes] for p in range(len(codes))]
    ranks = [(_CODES.index(code), _CODES.index(-code)) for code in codes]
    stack = [([range(len(classes))], (), tuple(range(len(codes))))]
    while stack:
        groups, labels, left = stack.pop()
        if not left:
            yield tuple(group[0] for group in groups), labels
            continue
        limit = bound[len(labels)] if bound else None
        for p in left:
            parts, split = _route(groups, columns[p], sizes)
            mirror = _mirror(split)
            rest = tuple(q for q in left if q != p)
            for image, other, rank, order in (
                (split, mirror, ranks[p][0], (0, 1, 2)),
                (mirror, split, ranks[p][1], (2, 1, 0)),
            ):
                if image > other:
                    continue
                label = (image, rank)
                if limit:
                    if label < limit:
                        yield None, labels + (label,)
                        return
                    if label != limit:
                        continue
                stack.append(([part[k] for part in parts for k in order if part[k]], labels + (label,), rest))


def _moves(classes, codes, labels):
    """The canonical test of a node and its moves, from one pass over its
    images.  None when some walk-form image has lesser labels than the
    node's own path, `labels`: the walk met its orbit at that image first.
    Otherwise the class orders of the images with the node's labels, which
    are the node itself, without the identity: one per transform fixing the
    node, listing for each class the class that the transform maps onto it."""
    moves = set()
    for order, image_labels in _images(classes, codes, labels):
        if image_labels != labels:
            return None
        moves.add(order)
    moves.discard(tuple(range(len(classes))))
    return moves


def _state(classes, codes, vectors_f, vectors_d):
    """A search node's state: its depth, its class sizes and its sets of
    size-f and size-d sparse vectors.  Whether a witness lies strictly below
    a node depends on nothing else: the splits below it are chosen by its
    sizes, its children's vectors are refinements of its own, and the pin
    and witness tests read only sizes and vectors.  Itineraries matter only
    to the symmetry skips, which never change whether a subtree holds one.

    The depth sets how many weighings are left; without it, nodes in one
    state at (6, 3, 1, 3) disagree.  The size-d vectors decide which
    descendants are witnesses.  A state without them showed no disagreement
    for t <= 7 at 2 and 3 weighings, but the argument above needs them, so
    they stay."""
    return len(codes), tuple(n for _, n in classes), frozenset(vectors_f), frozenset(vectors_d)


def _iter_witnesses(t: int, f: int, d: int, max_weighings: int):
    """Depth-first over (profile, outcome sequence) nodes, yielding a
    discreet-valid node of every orbit under reordering the weighings and
    swapping pans, in a fixed order, as (classes, codes, its size-f
    vectors).

    Each node carries its consistent size-f and size-d class vectors, in
    the judge's sparse form: a child's are exactly the refinements of its
    parent's (`judge._refine`) that show the child's last outcome.  A node
    is skipped, subtree and all, when it has no size-f vector or some class
    is pinned.  That loses no witness: each child class lies inside one
    parent class, so a pinned class stays pinned below it.  A node left is
    a witness when it has no size-d vector.

    Two more skips walk each orbit once, by McKay's orderly generation,
    which tests canonicity locally and stores no orbits.  A path's steps are
    labeled as `_images` labels the identity's, and an internal child is
    walked only when no walk-form image has lesser labels (`_moves`).  A
    transform giving a parent lesser labels, with the last weighing's pans
    swapped if need be, gives its child lesser labels, so an orbit's least
    member has least ancestors and the walk meets it first.  The images of
    a split under the node's stabiliser give the same children up to a
    transform fixing the node, and so do their mirrors.  Each split walked
    adds its images to a set for the node (`covered`, mirrors left out),
    and a later split is skipped when it or its mirror is in that set.
    Splits come in increasing order and the stabiliser is a group, so this
    walks the least split of each such family and keeps every least member.
    The image pass that tests a child gives its stabiliser too; the root
    and the leaves are never tested.  Neither skip changes the first
    witness, which is the least member of its orbit: being pinned or a
    witness does not depend on the order or the pans.  Later witnesses of
    an orbit already met are skipped; `_labeled_witnesses` restores them.
    A witness's size-f vectors are the bucket of its parent's refinement
    that showed its last code, with its classes numbered in itinerary
    order, as `_expand_witness` takes them.

    Every refinement takes a class's ways, numbered as child classes, from
    the judge's one cache of them (`judge._parts`), so the walk keeps no
    table of ways; it keeps only its `spans` for `_signs`.

    Where a split's children are leaves, its size-d vectors come first: a
    leaf is a witness only when no size-d set shows its code, and `_signs`
    tells which codes they show without building a child.  When they show
    all three, the split is passed over and its size-f vectors are not
    refined; otherwise only the codes left unshown are pin-tested, and a
    leaf left is a witness.  Leaves are neither tested nor entered, so this
    changes no witness and no order.  An internal node refines its size-f
    vectors first and its size-d vectors only for a child it keeps, since
    that child's state needs them.

    The walk also remembers failed states, as nogood recording does
    (Dechter 1990; Schiex and Verfaillie 1994): an internal node whose state
    (`_state`) is in `failed` is skipped, subtree and all, when it is
    entered.  That is after its parent tested it, since the state needs the
    node's size-d vectors, which are refined only for nodes the test
    keeps.  A state is recorded when its node's subtree has been walked and
    the walk has yielded no witness yet.  That is sound for the first
    witness and for the listings alike.  Before the first witness, every
    skip inside a walked subtree, by pin, image, test or state, passed over
    a subtree that holds no witness, by induction over the walk.  So a
    subtree that yielded nothing truly holds none, and neither does any
    node in the same state.  After the first witness no state is recorded,
    since the test may then pass over an orbit with witnesses."""
    failed: set = set()  # states whose subtrees hold no witness
    spans: dict = {}
    found = False  # whether the walk has yielded a witness

    def recurse(classes, codes, labels, vectors_f, vectors_d, moves):
        nonlocal found
        state = _state(classes, codes, vectors_f, vectors_d)
        if state in failed:
            return
        last = len(codes) + 1 == max_weighings  # the children are leaves
        covered: set = set()  # the images of the splits kept so far
        for split in _splits([n for _, n in classes]):
            if moves:
                if split in covered or _mirror(split) in covered:
                    continue
                # a move lists for each class the class mapped onto it
                covered.update(tuple(map(split.__getitem__, move)) for move in moves)
            shown = ()  # at the last weighing, the codes size-d sets show
            if last:
                # a leaf is a witness only when no size-d set shows its code
                shown = _signs(vectors_d, split, spans)
                if len(shown) == 3:
                    continue
            refined_f = _refine(vectors_f, split)
            sizes = child = refined_d = None
            for rank, code in enumerate(_CODES):
                child_f = refined_f[code]
                if not child_f or code in shown:
                    continue
                if sizes is None:
                    # child classes in _apply_split order: per class L, O, R
                    sizes = [n for l, r, o in split for n in (l, o, r) if n]
                if _pinned_class(sizes, child_f):
                    continue
                if child is None:
                    child = _apply_split(classes, split)
                child_codes = codes + (code,)
                if last:  # a leaf is neither tested nor expanded
                    found = True
                    yield child, child_codes, child_f
                    continue
                child_labels = labels + ((split, rank),)
                child_moves = _moves(child, child_codes, child_labels)
                if child_moves is None:
                    continue
                if refined_d is None:
                    refined_d = _refine(vectors_d, split)
                child_d = refined_d[code]
                if not child_d:
                    found = True
                    yield child, child_codes, child_f
                yield from recurse(child, child_codes, child_labels, child_f, child_d, child_moves)
        if not found:
            failed.add(state)

    yield from recurse((("", t),), (), (), [((0, f),)], [((0, d),)] if d else [()], ())


def _labeled_witnesses(t: int, f: int, d: int, max_weighings: int):
    """Yield every labeled witness node the unpruned walk yields, in its
    order, as (classes, codes).  Each orbit's witnesses from
    `_iter_witnesses` are expanded over the transforms whose every weighing
    is the form `_splits` keeps, and sorted by the labels `_images` gives
    their steps.  A witness that an earlier expansion already produced is
    not expanded again."""
    expanded: dict = {}  # labeled node -> its labels
    for classes, codes, _vectors in _iter_witnesses(t, f, d, max_weighings):
        if (classes, codes) not in expanded:
            for _order, labels in _images(classes, codes):
                image = (("", t),)
                for split, _rank in labels:
                    image = _apply_split(image, split)
                expanded[image, tuple(_CODES[rank] for _, rank in labels)] = labels
    yield from sorted(expanded, key=expanded.__getitem__)


def _expand_witness(instance: ProblemInstance, classes, codes, vectors) -> StrategyBundle:
    """The bundle of a witness node: its profile's plan, the outcomes
    `codes` and one case per consistent size-f sparse vector in `vectors`,
    whose classes are numbered in itinerary order, as `_iter_witnesses`
    yields them."""
    profile = ItineraryProfile(classes)
    symbols = [itin for itin, _ in profile.counts]
    ranges = profile.class_ranges()
    # dense and sorted, so the cases are listed in lexicographic order
    dense = sorted(
        tuple(fakes.get(j, 0) for j in range(len(symbols))) for fakes in map(dict, vectors)
    )
    cases = CaseStructure(
        tuple(
            tuple(Pile(ranges[itin], c) for itin, c in zip(symbols, vec) if c)
            for vec in dense
        )
    )
    return StrategyBundle(
        name="search-witness",
        instance=instance,
        plan=profile.to_plan(),
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
    for witness in _iter_witnesses(t, f, d, max_weighings):
        return _expand_witness(instance, *witness)
    return None


def all_discreet_profiles(t: int, f: int, d: int, max_weighings: int) -> list:
    """Every profile admitting a discreet valid proof within the bound, in
    discovery order, deduplicated."""
    _checked_instance(t, f, d, max_weighings)
    seen: dict = {}
    for classes, _codes in _labeled_witnesses(t, f, d, max_weighings):
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
    if _checked_int(t, "t") < 3:
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
    bounded search finds none.  The bounds are every search's:
    `MAX_SEARCH_T` coins and 1..`MAX_SEARCH_WEIGHINGS` weighings."""
    _checked_instance(t, 2, 1, max_weighings)
    if t % 2 == 0:
        raise ValueError(f"this check applies to odd coin counts, got t={t}")
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
