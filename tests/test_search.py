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
from discreet_weighings.model import conjugate
from discreet_weighings.search import (
    ItineraryProfile,
    all_discreet_profiles,
    check_odd_t_itineraries,
)
from helpers import (
    brute_consistent,
    brute_discreet_instances,
    brute_optimal_pairs,
    exhaustive_search_discreet,
    labeled_plans,
)

SEARCHES = {"pruned": search_discreet, "exhaustive": exhaustive_search_discreet}


def test_bounds_are_enforced():
    with pytest.raises(ValueError):
        search_discreet(13, 2, 1, 3)
    with pytest.raises(ValueError):
        search_discreet(8, 2, 1, 5)
    with pytest.raises(ValueError):
        check_odd_t_itineraries(9, 4)
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
    profile = ItineraryProfile((("L", 2), ("R", 2), ("O", 1)))
    assert profile.t == 5 and profile.num_weighings == 1


def test_odd_t_itinerary_conditions():
    vacuous = check_odd_t_itineraries(5, 3)
    assert vacuous.vacuous and vacuous.all_satisfy and vacuous.witnesses_checked == 0

    nine = check_odd_t_itineraries(9, 2)
    assert not nine.vacuous and nine.all_satisfy

    eleven = check_odd_t_itineraries(11, 3)
    assert not eleven.vacuous and eleven.all_satisfy
    assert eleven.witnesses_checked >= nine.witnesses_checked


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
