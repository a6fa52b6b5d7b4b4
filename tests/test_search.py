import itertools
import random

import pytest

from discreet_weighings import (
    ProblemInstance,
    Weighing,
    WeighingPlan,
    build_triple_case,
    classify_privacy,
    count_consistent,
    optimal_f2_new_possibilities,
    search_discreet,
    verify_proof,
)
from discreet_weighings import judge, search
from discreet_weighings.judge import _refine
from discreet_weighings.model import conjugate, itinerary_of
from discreet_weighings.search import (
    ItineraryProfile,
    MAX_SEARCH_T,
    _CODES,
    _apply_split,
    _labeled_witnesses,
    _images,
    _mirror,
    _moves,
    _signs,
    _span,
    _splits,
    _state,
    all_discreet_profiles,
    check_odd_t_itineraries,
)
from helpers import (
    brute_consistent,
    brute_count_vectors,
    brute_discreet_instances,
    brute_optimal_pairs,
    brute_witness_bundle,
    discreet,
    exhaustive_search_discreet,
    exhaustive_witnesses,
    labeled_plans,
    least_splits,
    prefix_split,
    random_plan,
    sparse,
    unpruned_nodes,
)

SEARCHES = {"pruned": search_discreet, "exhaustive": exhaustive_search_discreet}


def test_bounds_are_enforced():
    with pytest.raises(ValueError):
        search_discreet(13, 2, 1, 3)
    with pytest.raises(ValueError):
        search_discreet(8, 2, 1, 5)
    with pytest.raises(ValueError):
        check_odd_t_itineraries(9, 5)
    with pytest.raises(ValueError):
        check_odd_t_itineraries(13, 3)
    with pytest.raises(ValueError):
        check_odd_t_itineraries(8, 3)


def test_even_t_two_fakes_has_single_weighing_witness():
    witness = search_discreet(4, 2, 1, 1)
    assert witness is not None
    transcript = witness.transcript()
    verdict = verify_proof(witness.instance, transcript, witness.placement)
    assert verdict.valid
    assert classify_privacy(witness.instance, transcript).discreet
    assert count_consistent(4, 2, transcript) == 4  # the (2,2) split

    # with a higher bound some witness is still found (not necessarily the same)
    deeper = search_discreet(4, 2, 1, 3)
    assert deeper is not None
    assert classify_privacy(deeper.instance, deeper.transcript()).discreet


@pytest.mark.parametrize("t", [3, 5, 7])
def test_small_odd_t_two_fakes_impossible(t):
    assert search_discreet(t, 2, 1, 3) is None


def test_nine_coins_witness_matches_triple_case_structure():
    witness = search_discreet(9, 2, 1, 2)
    assert witness is not None
    transcript = witness.transcript()
    assert verify_proof(witness.instance, transcript, witness.placement).valid
    assert classify_privacy(witness.instance, transcript).discreet
    assert count_consistent(9, 2, transcript) == 6

    profile = ItineraryProfile.from_plan(witness.plan)
    assert len(profile.counts) == 6
    counts = dict(profile.counts)
    pair_sizes = set()
    for itin, n in counts.items():
        partner = conjugate(itin)
        assert partner in counts
        pair_sizes.add(frozenset({itin, partner}))
    assert len(pair_sizes) == 3
    assert sorted(
        tuple(sorted((counts[a], counts[b]))) for a, b in map(sorted, pair_sizes)
    ) == [(1, 2), (1, 2), (1, 2)]

    # same judged structure as the explicit nine-coin construction
    reference = build_triple_case(ProblemInstance(9, 2, 1))
    assert count_consistent(9, 2, reference.transcript()) == 6


@pytest.mark.parametrize(
    "t,f,d",
    [(4, 1, 0), (5, 1, 2), (6, 1, 3), (4, 3, 1), (5, 4, 2), (6, 5, 0), (6, 2, 0), (8, 2, 0)],
)
def test_known_impossible_families(t, f, d):
    assert search_discreet(t, f, d, 3) is None


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_search_agrees_with_brute_force_over_labeled_plans(t):
    if t < 5:
        plans = list(labeled_plans(t, 3))
    else:
        # relabeling the coins moves any first weighing of s v s coins to
        # {0..s-1} v {s..2s-1} and keeps every proof and its discretion
        plans = []
        for s in range(1, t // 2 + 1):
            first = Weighing(frozenset(range(s)), frozenset(range(s, 2 * s)))
            plans.append(WeighingPlan(t, (first,)))
            plans.extend(WeighingPlan(t, (first, *p.weighings)) for p in labeled_plans(t, 2))
    possible = brute_discreet_instances(plans)
    for f in range(1, t):
        for d in range(t + 1):
            if d != f:
                found = search_discreet(t, f, d, 3) is not None
                assert found == ((f, d) in possible), (t, f, d)


@pytest.mark.parametrize("t,f,d", [(3, 2, 1), (4, 2, 1), (5, 2, 1), (4, 2, 3), (5, 3, 1)])
def test_pruned_and_exhaustive_searches_agree(t, f, d):
    pruned = search_discreet(t, f, d, 3)
    exhaustive = exhaustive_search_discreet(t, f, d, 3)
    if pruned is None:
        assert exhaustive is None
    else:
        assert exhaustive is not None
        assert pruned.plan == exhaustive.plan
        assert pruned.placement == exhaustive.placement


def _dense(vec, k):
    dense = [0] * k
    for j, c in vec:
        dense[j] = c
    return tuple(dense)


def test_refined_vectors_match_the_enumerator_on_random_splits():
    # a parent's size-f vectors, refined over every split (and its mirror),
    # must be the child's vectors for each sign of the new weighing.  The
    # judge's one cache of ways serves every split, mirror and parent, as
    # it serves a whole search walk, so a cache key that fixes too little
    # shows here.
    rng = random.Random(9)
    for _ in range(60):
        w = rng.randint(0, 2)
        k = rng.randint(1, min(3**w, 4))
        symbols = sorted(rng.sample(["".join(s) for s in itertools.product("LRO", repeat=w)], k))
        sizes = [rng.randint(1, 3) for _ in range(k)]
        classes = tuple(zip(symbols, sizes))
        codes = tuple(rng.choice((0, 1, -1)) for _ in range(w))
        f = rng.randint(0, sum(sizes))
        parent = [sparse(vec) for vec in brute_count_vectors(symbols, sizes, codes, f)]
        for split in _splits(sizes):
            for routed in (split, tuple((r, l, o) for l, r, o in split)):
                child = _apply_split(classes, routed)
                buckets = _refine(parent, routed)
                for sign in (0, 1, -1):
                    expected = brute_count_vectors(
                        [itin for itin, _ in child], [n for _, n in child], codes + (sign,), f
                    )
                    refined = sorted(_dense(vec, len(child)) for vec in buckets[sign])
                    assert refined == expected, (classes, codes, f, routed)


@pytest.mark.parametrize(
    "t,f,d,w",
    [(4, 2, 1, 3), (4, 2, 3, 3), (5, 3, 1, 3), (6, 2, 1, 2), (6, 3, 1, 2), (6, 3, 2, 2),
     (6, 4, 3, 2), (8, 2, 1, 2), (6, 2, 0, 3), (5, 2, 5, 2), (6, 3, 4, 2), (4, 2, 1, 4)],
)
def test_witness_stream_equals_the_unpruned_walk(t, f, d, w):
    # pruning drops only subtrees without a witness and orbits already met,
    # so the orbit witnesses, expanded to labeled nodes, are the unpruned
    # walk's stream node for node, in order
    assert list(_labeled_witnesses(t, f, d, w)) == list(exhaustive_witnesses(t, f, d, w))


def test_splits_equal_a_brute_enumeration():
    # every per-class (l, r, o) composition, kept when the pans balance, the
    # left pan holds a coin and the lefts are at most the rights (one of
    # each mirror pair), in product order
    for k in range(1, 5):
        for sizes in itertools.product(range(1, 5 if k < 4 else 3), repeat=k):
            compositions = [[(l, r, n - l - r) for l in range(n + 1) for r in range(n + 1 - l)] for n in sizes]
            expected = [
                split
                for split in itertools.product(*compositions)
                if sum(l - r for l, r, _ in split) == 0
                and sum(l for l, _, _ in split) >= 1
                and tuple(l for l, _, _ in split) <= tuple(r for _, r, _ in split)
            ]
            assert _splits(list(sizes)) == expected, sizes


def test_split_and_mirror_count_each_prefix_class_on_each_pan():
    # the split of weighing i against a count, over the coins of the
    # expanded plan, of each prefix class on each pan; the mirror against
    # the same count with that weighing's pans swapped
    rng = random.Random(12)
    for _ in range(200):
        t = rng.randint(2, 12)
        profile = ItineraryProfile.from_plan(random_plan(rng, t, rng.randint(1, 4)))
        plan = profile.to_plan()
        itins = [itin for itin, _ in profile.counts]
        sizes = [n for _, n in profile.counts]
        for i, weighing in enumerate(plan.weighings):
            split = prefix_split([itin[:i] for itin in itins], [itin[i] for itin in itins], sizes)
            for (left, right), routed in (((weighing.left, weighing.right), split),
                                          ((weighing.right, weighing.left), _mirror(split))):
                counted: dict = {}
                for coin in range(t):
                    pans = counted.setdefault(itinerary_of(plan, coin)[:i], [0, 0, 0])
                    pans[0 if coin in left else 1 if coin in right else 2] += 1
                assert routed == tuple(tuple(counted[prefix]) for prefix in sorted(counted))


def test_walk_form_keeps_the_images_with_the_lighter_left_pan_first():
    # the images are those of the transforms, one each, whose every split
    # (`helpers.prefix_split` over the image itineraries before it) is at
    # most its mirror: the first class whose pans differ has the lighter
    # left pan.
    # Each step is labeled by that split and its code's rank, and the
    # class order lists each image class's source class in itinerary order
    rng = random.Random(14)
    for _ in range(300):
        w = rng.randint(0, 3)
        classes, codes = _random_node(rng, w, rng.randint(1, min(3**w, 6)))
        expected = []
        for order, swapped in _transforms(w):
            image = _transformed(classes, codes, order, swapped)
            labels = _walk_labels(*image)
            if labels is not None:
                sources = sorted((_image(itin, order, swapped), j) for j, (itin, _) in enumerate(classes))
                expected.append((tuple(j for _, j in sources), labels))
        assert sorted(_images(classes, codes)) == sorted(expected), (classes, codes)


def test_search_takes_only_the_refinement_step_from_the_judge():
    # the walk refines its parents' size-f and size-d vectors and never
    # recounts them, and the witness bundle is built from the vectors the
    # walk carried to it: no fold from scratch, not even for the witness.
    # Besides the refinement it reads only a class's ways, for its spans
    taken = {
        name
        for name, value in vars(search).items()
        if getattr(value, "__module__", None) == judge.__name__
    }
    assert taken == {"_refine", "_parts"}
    for t, f, d, w in ((9, 2, 1, 2), (4, 2, 3, 3), (10, 3, 2, 3)):
        classes, codes, _vectors = next(search._iter_witnesses(t, f, d, w))
        expected = brute_witness_bundle(t, f, d, classes, codes)
        assert search_discreet(t, f, d, w).to_json() == expected.to_json(), (t, f, d, w)


def _image(itin, order, swapped):
    """The itinerary whose weighing i is weighing order[i] of `itin`, with
    its pans swapped when order[i] is in `swapped`."""
    return "".join(conjugate(itin[p]) if p in swapped else itin[p] for p in order)


def _transformed(classes, codes, order, swapped):
    """The node whose weighing i is weighing order[i] of (classes, codes),
    with its pans swapped when order[i] is in `swapped`."""
    images = tuple(sorted((_image(itin, order, swapped), n) for itin, n in classes))
    return images, tuple(-codes[p] if p in swapped else codes[p] for p in order)


def _transforms(w):
    for order in itertools.permutations(range(w)):
        for mask in range(2**w):
            yield order, {p for p in range(w) if mask >> p & 1}


def _random_node(rng, w, k):
    itineraries = ["".join(s) for s in itertools.product("LRO", repeat=w)]
    classes = tuple(sorted((itin, rng.randint(1, 3)) for itin in rng.sample(itineraries, k)))
    return classes, tuple(rng.choice((0, 1, -1)) for _ in range(w))


def _walk_labels(classes, codes):
    """A node's labels by the judge's split rule: per weighing, its split
    of the classes before it (`helpers.prefix_split`) and its code's rank in
    `_CODES`.  None when the walk never meets the node: in some split, the
    first class whose pans hold different numbers of coins has the heavier
    left pan."""
    itins = [itin for itin, _ in classes]
    sizes = [n for _, n in classes]
    labels = []
    for i, code in enumerate(codes):
        split = prefix_split([itin[:i] for itin in itins], [itin[i] for itin in itins], sizes)
        differing = [(l, r) for l, r, _ in split if l != r]
        if differing and differing[0][0] > differing[0][1]:
            return None
        labels.append((split, _CODES.index(code)))
    return tuple(labels)


def _least_member(classes, codes):
    """The member of a node's orbit with the least labels, and its labels."""
    members = {_transformed(classes, codes, *g) for g in _transforms(len(codes))}
    labels, node = min((labels, node) for node in members if (labels := _walk_labels(*node)) is not None)
    return node, labels


def _passes(node):
    """Whether the walk can meet a node and it passes the canonical test."""
    labels = _walk_labels(*node)
    return labels is not None and _moves(*node, labels) is not None


def test_canonical_key_is_invariant_under_reordering_and_pan_swaps():
    # a node passes the canonical test when no walk-form image has lesser
    # labels than its own (`_moves` is not None).  Whichever member of an
    # orbit under reordering the weighings and swapping pans the walk meets,
    # exactly one member passes among those the walk can meet: the one with
    # least labels, by brute force.  Random nodes at 3 weighings
    rng = random.Random(11)
    for _ in range(100):
        node = _random_node(rng, 3, rng.randint(1, 4))
        orbit = {_transformed(*node, *g) for g in _transforms(3)}
        assert set(filter(_passes, orbit)) == {_least_member(*node)[0]}, node


def test_canonical_keys_are_equal_exactly_on_orbits():
    # every node of at most 3 classes of sizes 1..2 over at most 2
    # weighings: the set is closed under the transforms, so the nodes that
    # pass the canonical test must be exactly one per orbit, each orbit's
    # member with least labels
    nodes = set()
    for w in (1, 2):
        itineraries = ["".join(s) for s in itertools.product("LRO", repeat=w)]
        for k in (1, 2, 3):
            for chosen in itertools.combinations(itineraries, k):
                for counts in itertools.product((1, 2), repeat=k):
                    for codes in itertools.product((0, 1, -1), repeat=w):
                        nodes.add((tuple(sorted(zip(chosen, counts))), codes))
    assert set(filter(_passes, nodes)) == {_least_member(*node)[0] for node in nodes}


def _symmetric_node(rng, w):
    """A random node fixed, when its codes allow, by a random transform:
    its itineraries are closed under the transform, with one count per
    cycle."""
    order, swapped = rng.choice(list(_transforms(w)))
    itineraries = ["".join(s) for s in itertools.product("LRO", repeat=w)]
    counts = {}
    for itin in rng.sample(itineraries, rng.randint(1, min(3**w, 4))):
        n = rng.randint(1, 3)
        while itin not in counts:
            counts[itin] = n
            itin = _image(itin, order, swapped)
    codes = (0,) * w if rng.random() < 0.5 else tuple(rng.choice((0, 1, -1)) for _ in range(w))
    return tuple(sorted(counts.items())), codes


def test_stabiliser_is_the_class_permutations_of_the_fixing_transforms():
    # the moves of an orbit's member with least labels are the class
    # permutations of the transforms that fix it
    rng = random.Random(12)
    nontrivial = 0
    for trial in range(300):
        w = rng.randint(1, 3)
        if trial % 2:
            node = _symmetric_node(rng, w)
        else:
            node = _random_node(rng, w, rng.randint(1, min(3**w, 6)))
        (classes, codes), labels = _least_member(*node)
        index = {itin: j for j, (itin, _) in enumerate(classes)}
        expected = set()
        for order, swapped in _transforms(w):
            if _transformed(classes, codes, order, swapped) == (classes, codes):
                expected.add(tuple(index[_image(itin, order, swapped)] for itin, _ in classes))
        # the moves are the stabiliser without the identity.  `_moves` lists
        # each fixing transform's inverse, which is the same set in a group
        identity = tuple(range(len(classes)))
        assert _moves(classes, codes, labels) == expected - {identity}, (classes, codes)
        nontrivial += len(expected) > 1
    assert nontrivial >= 50  # 90 of the 300 nodes have a nontrivial stabiliser


def test_each_internal_node_makes_one_image_pass(monkeypatch):
    # the canonical test of an internal node and its moves come from one
    # pass over its images, made when its parent walks it; the root and the
    # leaves make none.  The full walk at (10, 3, 2, 3) takes seconds, so it
    # is followed to its first witness and the two cheaper walks in full.
    calls = {"_images": 0, "_moves": 0}
    for name in calls:
        def counted(*args, _real=getattr(search, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(search, name, counted)
    for t, f, d, w, witnesses in ((10, 3, 2, 3, 1), (9, 2, 1, 3, None), (8, 2, 0, 3, None)):
        calls.update(dict.fromkeys(calls, 0))
        for _ in itertools.islice(search._iter_witnesses(t, f, d, w), witnesses):
            pass
        assert calls["_moves"] > 0, (t, f, d, w)
        assert calls["_images"] == calls["_moves"], (t, f, d, w)


def test_profile_listing_equals_the_unpruned_walk():
    for t, w in ((2, 3), (3, 3), (4, 3), (5, 2), (6, 2)):
        for f in range(1, t):
            for d in range(t + 1):
                if d != f:
                    seen = {}
                    for classes, _codes in exhaustive_witnesses(t, f, d, w):
                        seen.setdefault(ItineraryProfile(classes), None)
                    assert all_discreet_profiles(t, f, d, w) == list(seen), (t, f, d, w)


ORBIT_SWEEP = [
    (t, f, d, 3) for t in range(2, 8) for f in range(1, t) for d in range(t + 1) if d != f
] + [(9, 2, 1, 2), (10, 3, 2, 3), (12, 2, 1, 2)]


def test_orbit_skipping_search_finds_the_first_witness_of_the_full_walk():
    # (4, 2, 0, 4) exhausts; (6, 3, 1, 4) first finds a witness with 4 weighings
    for t, f, d, w in ORBIT_SWEEP + [(4, 2, 0, 4), (6, 3, 1, 4)]:
        if t >= 9 or w == 4:
            # the brute-force walk, which stops at its first witness
            expected = exhaustive_search_discreet(t, f, d, w)
        else:
            first = next(_labeled_witnesses(t, f, d, w), None)
            expected = None if first is None else brute_witness_bundle(t, f, d, *first)
        found = search_discreet(t, f, d, w)
        assert (found is None) == (expected is None), (t, f, d, w)
        if found is not None:
            assert found.to_json() == expected.to_json(), (t, f, d, w)


def test_unpruned_nodes_carry_the_enumerators_vectors():
    for t in range(2, 6):
        for classes, codes, _parent, vectors in unpruned_nodes(t, 3):
            symbols = [itin for itin, _ in classes]
            sizes = [n for _, n in classes]
            for s in range(t + 1):
                assert sorted(vectors.get(s, ())) == brute_count_vectors(symbols, sizes, codes, s)


def test_a_state_decides_whether_a_witness_lies_below_its_node():
    # the memo of failed states is sound because nodes in one state
    # (`_state`) agree on whether a witness lies strictly below them; the
    # depth is needed for that: without it, nodes at (6, 3, 1, 3) disagree
    depthless_conflicts = 0
    for t in range(2, 8):
        nodes = unpruned_nodes(t, 3)
        # the (f, d) for which each node is a witness
        witness_for = [
            {
                (f, d)
                for f in vectors
                if 0 < f < t and discreet([n for _, n in classes], vectors[f])
                for d in range(t + 1)
                if d not in vectors
            }
            for classes, _codes, _parent, vectors in nodes
        ]
        for w in (2, 3):
            # the (f, d) for which a witness lies strictly below each node;
            # children come after their parent in walk order
            below = [set() for _ in nodes]
            for i in range(len(nodes) - 1, 0, -1):
                _classes, codes, parent, _vectors = nodes[i]
                if len(codes) <= w:
                    below[parent] |= below[i] | witness_for[i]
            states: dict = {}
            depthless: dict = {}
            for (classes, codes, _, vectors), pairs in zip(nodes, below):
                if len(codes) >= w:
                    continue
                sparse_vectors = {s: frozenset(map(sparse, vecs)) for s, vecs in vectors.items()}
                for f in range(1, t):
                    for d in range(t + 1):
                        if d != f:
                            state = _state(classes, codes, sparse_vectors.get(f, ()), sparse_vectors.get(d, ()))
                            flag = (f, d) in pairs
                            assert states.setdefault((f, d, state), flag) == flag, (t, f, d, w, state)
                            if (t, f, d, w) == (6, 3, 1, 3):
                                depthless_conflicts += depthless.setdefault(state[1:], flag) != flag
    assert depthless_conflicts > 0


def test_four_weighing_two_fakes_against_none_exhaust():
    # each with its dual, which swaps fakes and real coins: t - 2 fakes
    # against t
    for t in range(4, 10):
        assert search_discreet(t, 2, 0, 4) is None, t
        assert search_discreet(t, t - 2, t, 4) is None, t


def test_pinned_class_is_its_definition_on_random_vector_families():
    # pinned: some class is in no vector, or full in every vector.  Sparse
    # families of few vectors often hold fewer (class, fakes) pairs than
    # there are classes, which the pigeonhole test decides alone
    rng = random.Random(15)
    seen = set()
    for _ in range(3000):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 6))]
        density = rng.random()
        vectors = [
            tuple((j, rng.randint(1, n)) for j, n in enumerate(sizes) if rng.random() < density)
            for _ in range(rng.randint(1, 4))
        ]
        columns = [[dict(vec).get(j, 0) for vec in vectors] for j in range(len(sizes))]
        never = any(not any(column) for column in columns)
        full = any(min(column) == n for column, n in zip(columns, sizes))
        assert search._pinned_class(sizes, vectors) == (never or full), (sizes, vectors)
        seen.add((sum(map(len, vectors)) < len(sizes), never, full))
    # with too few pairs, and with enough: each way to be pinned, and not
    assert {(True, True, False), (False, True, False), (False, False, True), (False, False, False)} <= seen


def _walk_steps(monkeypatch, t, f, d, w, cut=None):
    """The nodes a walk enters, in order, each as [classes, codes, its
    steps, its state], and the nodes still open when it stops after `cut`
    witnesses.  A node is seen entering when its state is taken, with its
    vectors.  A step is a `_refine` or `_signs` call the node makes, as
    (the step's name, the size of the vectors it takes, the split, its
    result)."""
    real = {name: getattr(search, name) for name in ("_state", "_refine", "_signs")}
    stack = []  # the node entered last at each depth, with its vectors
    nodes = []

    def entering(classes, codes, vectors_f, vectors_d):
        state = real["_state"](classes, codes, vectors_f, vectors_d)
        del stack[len(codes):]
        stack.append(([classes, codes, [], state], vectors_f, vectors_d))
        nodes.append(stack[-1][0])
        return state

    def step(name):
        def call(vectors, split):
            result = real[name](vectors, split)
            # the open node whose own vectors these are, by identity
            node, vectors_f, vectors_d = next(
                entry for entry in reversed(stack) if vectors is entry[1] or vectors is entry[2]
            )
            node[2].append((name, f if vectors is vectors_f else d, split, result))
            return result

        return call

    monkeypatch.setattr(search, "_state", entering)
    for name in ("_refine", "_signs"):
        monkeypatch.setattr(search, name, step(name))
    depth = 0
    for _classes, codes, _vectors in itertools.islice(search._iter_witnesses(t, f, d, w), cut):
        depth = len(codes)  # the witness's parent and its ancestors are open
    monkeypatch.undo()
    return nodes, [node for node, *_ in stack[:depth]] if cut else []


def test_each_node_refines_the_splits_the_image_rule_keeps(monkeypatch):
    # a node skips a split when a move maps an earlier kept split onto it
    # or onto its mirror; that must keep exactly the splits no move maps
    # onto a lesser one (`helpers.least_splits`).  A node's first step on
    # each split it keeps refines its size-f vectors, or, when its children
    # are leaves, tests the signs its size-d vectors show.  A node the
    # state memo cuts takes no step.  The full walk at (10, 3, 2, 3) takes
    # seconds, so it is followed to its first witness, and two cheaper
    # three-weighing walks are followed in full.
    skipping = 0
    for t, f, d, w in ORBIT_SWEEP + [(9, 2, 1, 3), (8, 2, 0, 3)]:
        nodes, still_open = _walk_steps(monkeypatch, t, f, d, w, 1 if t == 10 else None)
        assert nodes and not nodes[0][1], (t, f, d, w)
        walked = set()  # the states of the nodes walked so far
        for classes, codes, steps, state in nodes:
            if not steps:  # cut by the memo: a node in its state was walked
                assert state in walked, (t, f, d, w, classes, codes)
                continue
            walked.add(state)
            if any(node[2] is steps for node in still_open):
                continue
            kept = []
            for name, size, split, _result in steps:
                if not kept or kept[-1] != split:
                    assert (name, size) == (("_signs", d) if len(codes) == w - 1 else ("_refine", f))
                    kept.append(split)
            splits = _splits([n for _, n in classes])
            expected = least_splits(splits, _moves(classes, codes, _walk_labels(classes, codes)) if codes else ())
            assert kept == expected, (t, f, d, w, classes, codes)
            skipping += len(expected) < len(splits)
    assert skipping > 0


def test_the_last_weighing_tests_size_d_signs_before_refining_size_f(monkeypatch):
    # a leaf is a witness only when no size-d set shows its code, so a node
    # whose children are leaves first tests which signs its size-d vectors
    # show on a split, never refines them, and refines its size-f vectors
    # only when some sign is left unshown; other nodes refine as before
    unshown = all_shown = 0
    for t, f, d, w, cut in ((10, 3, 2, 3, 1), (9, 2, 1, 3, None), (8, 2, 0, 3, None), (9, 2, 1, 2, None)):
        nodes, _ = _walk_steps(monkeypatch, t, f, d, w, cut)
        for _classes, codes, steps, _node_state in nodes:
            if len(codes) < w - 1:
                assert all(name == "_refine" for name, *_ in steps), (t, f, d, w, codes)
                continue
            for before, (name, size, split, result) in zip([None] + steps, steps):
                if name == "_signs":
                    assert size == d, (t, f, d, w, codes)
                    all_shown += len(result) == 3
                else:
                    assert size == f and before[:3] == ("_signs", d, split), (t, f, d, w, codes)
                    assert len(before[3]) < 3, (t, f, d, w, codes, split)
                    unshown += 1
    assert unshown and all_shown
    # the first witness is the one the walk found when it refined both sizes
    classes, codes, _vectors = next(search._iter_witnesses(10, 3, 2, 3))
    assert classes == (("LOO", 1), ("OLR", 2), ("OOL", 3), ("ORO", 1), ("ORR", 2), ("RLL", 1))
    assert codes == (0, 0, 0)


def test_signs_are_the_codes_the_refinement_shows():
    # a class routed (l, r, o) with c fakes shows every pan difference
    # between its span's ends, in steps of 2 when its off part is forced:
    # no gap, over every class the search can route
    for l, r, o in itertools.product(range(MAX_SEARCH_T + 1), repeat=3):
        if l + r + o > MAX_SEARCH_T:
            continue
        for c in range(l + r + o + 1):
            diffs = {x - y for x in range(l + 1) for y in range(r + 1) if 0 <= c - x - y <= o}
            lo, hi, step = _span(l, r, o, c)
            assert diffs == set(range(lo, hi + 1, step)), (l, r, o, c)
    # so the signs a family of vectors shows over a split are the codes
    # whose buckets the refinement fills
    rng = random.Random(27)
    for _ in range(150):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        fakes = rng.randint(0, sum(sizes))
        dense = [v for v in itertools.product(*(range(n + 1) for n in sizes)) if sum(v) == fakes]
        vectors = [sparse(v) for v in sorted(rng.sample(dense, rng.randint(1, min(len(dense), 5))))]
        for split in rng.sample(_splits(sizes), min(len(_splits(sizes)), 6)):
            for routed in (split, _mirror(split)):
                refined = _refine(vectors, routed)
                assert _signs(vectors, routed) == {code for code in _CODES if refined[code]}
    assert _signs([], ((1, 1, 0),)) == set()


@pytest.mark.parametrize(
    "t,f,d,max_w,mode",
    [(4, 2, 1, 1, "pruned"), (4, 2, 1, 3, "pruned"), (9, 2, 1, 2, "pruned"),
     (10, 2, 1, 2, "pruned"), (4, 2, 1, 3, "exhaustive"), (4, 2, 3, 3, "pruned"),
     (4, 2, 3, 3, "exhaustive")],
)
def test_witness_placement_is_the_first_consistent_set(t, f, d, max_w, mode):
    witness = SEARCHES[mode](t, f, d, max_w)
    survivors = brute_consistent(t, f, witness.transcript())
    assert sorted(witness.placement) == min(sorted(s) for s in survivors)


def test_search_is_deterministic():
    first = search_discreet(9, 2, 1, 2)
    second = search_discreet(9, 2, 1, 2)
    assert first.plan == second.plan and first.placement == second.placement


def test_every_witness_profile_expands_soundly():
    for t, max_w in ((4, 2), (9, 2)):
        for profile in all_discreet_profiles(t, 2, 1, max_w):
            plan = profile.to_plan()
            assert ItineraryProfile.from_plan(plan) == profile


def test_two_fakes_one_disproved_witnesses_are_balanced_conjugate_paired():
    # structural necessities of any discreet proof at f=2, d=1: only balanced
    # outcomes, every occupied itinerary paired with its conjugate, and no
    # coin that stayed off the scale throughout
    from discreet_weighings import Outcome

    for t, max_w in ((4, 2), (9, 2), (10, 2)):
        witness = search_discreet(t, 2, 1, max_w)
        assert witness is not None
        assert all(o is Outcome.BALANCED for o in witness.transcript().outcomes)
        for profile in all_discreet_profiles(t, 2, 1, max_w):
            counts = dict(profile.counts)
            for itinerary in counts:
                assert set(itinerary) != {"O"}
                assert conjugate(itinerary) in counts


def test_profile_validation():
    with pytest.raises(ValueError):
        ItineraryProfile((("L", 2), ("R", 1)))  # pans of different sizes
    with pytest.raises(ValueError):
        ItineraryProfile((("L", 1), ("RR", 1)))  # mixed lengths
    with pytest.raises(ValueError):
        ItineraryProfile((("LX", 1), ("RO", 1)))
    # the pans hold 2 v 2, but the plan would leave a coin on neither pan
    with pytest.raises(ValueError, match="'L' is listed more than once"):
        ItineraryProfile((("L", 1), ("L", 1), ("R", 2)))
    with pytest.raises(ValueError, match="^a profile needs at least one itinerary class$"):
        ItineraryProfile(())
    with pytest.raises(ValueError, match="^class 'O' has count 0$"):
        ItineraryProfile((("L", 1), ("R", 1), ("O", 0)))
    profile = ItineraryProfile((("L", 2), ("R", 2), ("O", 1)))
    assert profile.t == 5 and profile.num_weighings == 1


def test_profile_refuses_non_integer_counts():
    # int() would make these (("L", 1), ("R", 1))
    for count in (1.9, True, "1"):
        with pytest.raises(ValueError, match="must be an integer"):
            ItineraryProfile((("L", count), ("R", 1)))


def test_search_refuses_a_non_integer_weighing_bound():
    # 1.5 once walked two weighings and returned a two-weighing witness
    for search_fn in (search_discreet, all_discreet_profiles):
        for bound in (1.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                search_fn(4, 2, 1, bound)


@pytest.mark.parametrize(
    "call,what",
    [
        (lambda: search_discreet("9", 2, 1, 2), "t"),
        (lambda: search_discreet(9, 2.0, 1, 2), "f"),
        (lambda: all_discreet_profiles(9, 2, True, 2), "d"),
        (lambda: optimal_f2_new_possibilities(8.0), "t"),
        (lambda: check_odd_t_itineraries(9.0, 3), "t"),
        (lambda: check_odd_t_itineraries(9, 3.0), "max_weighings"),
    ],
    ids=["search-t", "search-f", "profiles-d", "f2-t", "odd-t-t", "odd-t-bound"],
)
def test_search_refuses_non_integer_counts(call, what):
    # "9" once failed on the t bound's comparison, before t was checked
    with pytest.raises(ValueError, match=f"^{what} must be an integer"):
        call()


def test_odd_t_itinerary_conditions():
    vacuous = check_odd_t_itineraries(5, 3)
    assert vacuous.vacuous and vacuous.all_satisfy and vacuous.witnesses_checked == 0

    # demo 05 prints the two-weighing counts; the check takes every
    # search's weighing bound, 4
    for t, max_w, checked in ((9, 2, 2), (9, 3, 10), (11, 2, 8), (11, 3, 146), (9, 4, 36)):
        report = check_odd_t_itineraries(t, max_w)
        assert not report.vacuous and report.all_satisfy
        assert report.witnesses_checked == checked, (t, max_w)


FOUR_CLASSES = ItineraryProfile((("LO", 1), ("RO", 1), ("OL", 1), ("OR", 1)))


@pytest.mark.parametrize(
    "profile",
    [
        FOUR_CLASSES,
        # three conjugate pairs of odd combined size, which would pass, and
        # OO, which is its own conjugate
        ItineraryProfile((("LO", 1), ("RO", 2), ("LR", 2), ("RL", 1), ("OL", 2), ("OR", 1), ("OO", 1))),
    ],
    ids=["fewer-than-six-classes", "self-conjugate-class"],
)
def test_odd_t_conditions_refuse_a_profile_outside_them(profile):
    assert search._satisfies_odd_conditions(profile) is False


def test_odd_t_check_reports_each_profile_that_fails(monkeypatch):
    monkeypatch.setattr(search, "all_discreet_profiles", lambda t, f, d, max_weighings: [FOUR_CLASSES])
    report = check_odd_t_itineraries(9, 2)
    assert report.failures == (FOUR_CLASSES,)
    assert not report.vacuous and not report.all_satisfy and report.witnesses_checked == 1


def test_optimal_pairs_even_t():
    for t in range(4, 31, 2):
        value, witness = optimal_f2_new_possibilities(t)
        assert value == (t // 2) ** 2
        assert value == brute_optimal_pairs(t)
    assert optimal_f2_new_possibilities(80) == (1600, ((40, 40),))


def test_optimal_pairs_odd_t():
    for t in range(9, 30, 2):
        value, witness = optimal_f2_new_possibilities(t)
        k = t // 2
        assert value == (k - 2) * (k - 3) + 1 * 2 + 2 * 1
        assert value == brute_optimal_pairs(t)
    assert optimal_f2_new_possibilities(9) == (6, ((2, 1), (2, 1), (2, 1)))
    assert optimal_f2_new_possibilities(81) == (1410, ((38, 37), (2, 1), (2, 1)))


def test_optimal_pairs_witness_is_consistent_with_value():
    for t in range(3, 121):
        result = optimal_f2_new_possibilities(t)
        if result is None:
            continue
        value, witness = result
        assert sum(a + b for a, b in witness) == t
        assert sum(a * b for a, b in witness) == value
        if t % 2:
            assert sum((a + b) % 2 for a, b in witness) >= 3


def test_optimal_pairs_impossible_and_errors():
    for t in range(3, 121):
        assert (optimal_f2_new_possibilities(t) is None) == (t in (3, 5, 7))
    for t in (3, 5, 7):
        assert brute_optimal_pairs(t) is None
    with pytest.raises(ValueError):
        optimal_f2_new_possibilities(2)


def closed_form_optimum(t):
    """The optimum and its pair distribution for every admissible t >= 4:
    one pair of t/2 + t/2 coins for even t; for odd t one pair as large as
    possible beside two (2, 1) pairs, the least that gives three odd pairs."""
    if t % 2 == 0:
        return (t // 2) ** 2, ((t // 2, t // 2),)
    k = t // 2
    return (k - 2) * (k - 3) + 4, ((k - 2, k - 3), (2, 1), (2, 1))


def test_optimal_pairs_match_closed_forms():
    for t in [*range(4, 121), 200, 401]:
        if t not in (5, 7):
            assert optimal_f2_new_possibilities(t) == closed_form_optimum(t)


def test_complement_duality_of_the_search():
    # the complement of a consistent size-f set is a consistent size-(t - f)
    # set of the negated transcript, and privacy is kept, so a profile has
    # a discreet proof for (t, f, d) exactly when it has one for
    # (t, t - f, t - d)
    # reproduce's impossible-one-real instances are the duals of its
    # impossible-one-fake instances with t >= 3
    one_fake = {(t, 1, d) for t in range(3, 7) for d in range(t + 1) if d != 1}
    one_real = {(t, t - 1, d) for t in range(3, 7) for d in range(t + 1) if d != t - 1}
    assert one_real == {(t, t - f, t - d) for t, f, d in one_fake}
    instances = [
        (t, f, d, w) for w in (1, 2) for t in range(2, 8) for f in range(1, t) for d in range(t + 1) if d != f
    ] + [(4, 2, 1, 3), (5, 3, 1, 3), (6, 2, 1, 3), (6, 3, 1, 3), (7, 3, 2, 3), (7, 4, 1, 3)]
    instances += [(t, f, d, 3) for t, f, d in sorted(one_real)]
    found = 0
    for t, f, d, w in instances:
        profiles = set(all_discreet_profiles(t, f, d, w))
        assert profiles == set(all_discreet_profiles(t, t - f, t - d, w)), (t, f, d, w)
        exhausted = search_discreet(t, f, d, w) is None
        assert exhausted == (search_discreet(t, t - f, t - d, w) is None) == (not profiles), (t, f, d, w)
        found += not exhausted
    assert found >= 30  # 38 of the 248
