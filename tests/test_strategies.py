from fractions import Fraction
from math import ceil

import pytest

from discreet_weighings import (
    BUILDERS,
    ConstructionError,
    Outcome,
    ProblemInstance,
    build_equal_piles,
    build_leftover_reveal,
    build_official,
    build_reference_pile,
    build_triple_case,
    classify_privacy,
    count_consistent,
    partition_by_itinerary,
    uniform_best_guess,
    validate_plan,
    verify_proof,
)
from helpers import OUTCOME_CODE, brute_consistent, consistent_family_from_cases, dense_count_vectors


def assert_bundle_claims_hold(bundle):
    """Cross-validate a bundle against the judge engine."""
    assert validate_plan(bundle.plan) == []
    transcript = bundle.transcript()
    assert transcript.outcomes == bundle.expected_outcomes
    verdict = verify_proof(bundle.instance, transcript, bundle.placement)
    assert verdict.valid
    report = classify_privacy(bundle.instance, transcript)
    assert report.discreet == bundle.expected_discreet
    assert report.revealed_real == bundle.revealed_expected
    assert not report.revealed_fake
    # the placement is one of the cases' sets: some case's disjoint piles
    # hold exactly their fakes of it, and all of it
    assert any(
        all(len(bundle.placement & p.coins) == p.fakes for p in case)
        and sum(p.fakes for p in case) == len(bundle.placement)
        for case in bundle.cases.cases
    )
    assert_cases_are_the_judge_vectors(bundle)
    return transcript, verdict, report


def assert_cases_are_the_judge_vectors(bundle):
    """The declared cases are the judge's size-f class count vectors: every
    pile is exactly one itinerary class, and the cases' fakes per class are
    the vectors, one case per vector.  Coins of a class are interchangeable,
    so this says the case family is exactly the consistent size-f sets."""
    classes = list(partition_by_itinerary(bundle.plan).items())
    position = {coins: j for j, (_, coins) in enumerate(classes)}
    declared = []
    for case in bundle.cases.cases:
        vec = [0] * len(classes)
        for pile in case:
            assert pile.coins in position, f"pile {sorted(pile.coins)} is not a class"
            vec[position[pile.coins]] = pile.fakes
        declared.append(tuple(vec))
    derived = dense_count_vectors(
        [itin for itin, _ in classes],
        [len(coins) for _, coins in classes],
        [OUTCOME_CODE[o] for o in bundle.transcript().outcomes],
        bundle.instance.f,
    )
    assert len(declared) == len(derived)
    assert set(declared) == set(derived)


@pytest.mark.parametrize(
    "t,f,d,a",
    [(80, 2, 1, 2), (80, 4, 3, 2), (80, 4, 3, 4), (12, 4, 1, 2), (9, 3, 1, 3)],
)
def test_equal_piles_bundles(t, f, d, a):
    bundle = build_equal_piles(ProblemInstance(t, f, d), a)
    _, verdict, _ = assert_bundle_claims_hold(bundle)
    per_pile = f // a
    pile_size = t // a
    from math import comb

    assert verdict.consistent_count_f == comb(pile_size, per_pile) ** a


def test_equal_piles_reference_counts():
    inst = ProblemInstance(80, 2, 1)
    bundle = build_equal_piles(inst, 2)
    assert count_consistent(80, 2, bundle.transcript()) == 1600
    assert bundle.plan.weighings[0].left == frozenset(range(40))

    inst = ProblemInstance(80, 4, 3)
    assert count_consistent(80, 4, build_equal_piles(inst, 4).transcript()) == 160000
    assert count_consistent(80, 4, build_equal_piles(inst, 2).transcript()) == 608400


def test_equal_piles_small_family_matches_judge():
    bundle = build_equal_piles(ProblemInstance(12, 4, 1), 2)
    assert_cases_are_the_judge_vectors(bundle)
    assert consistent_family_from_cases(bundle.cases) == brute_consistent(
        12, 4, bundle.transcript()
    )


def test_equal_piles_preconditions():
    inst = ProblemInstance(80, 4, 2)
    with pytest.raises(ConstructionError, match="a > 1"):
        build_equal_piles(inst, 1)
    with pytest.raises(ConstructionError, match="divide t"):
        build_equal_piles(ProblemInstance(81, 3, 2), 2)
    with pytest.raises(ConstructionError, match="divide f"):
        build_equal_piles(ProblemInstance(80, 3, 2), 2)
    with pytest.raises(ConstructionError, match="divides d"):
        build_equal_piles(inst, 2)  # a=2 divides d=2


def test_equal_piles_refuses_a_non_integer_pile_count():
    # 2.0 once failed deep inside, building the piles
    for a in (2.0, True, "2"):
        with pytest.raises(ValueError, match="^a must be an integer"):
            build_equal_piles(ProblemInstance(80, 4, 3), a)


def test_triple_case_layout_matches_documented_sizes():
    bundle = build_triple_case(ProblemInstance(80, 3, 2))
    sizes = [len(p.coins) for case in bundle.cases.cases for p in case]
    assert sizes == [24, 24, 23, 1, 1, 2, 2, 2, 1]
    # weighings pair A_1+B_1 against each A_i+B_i, then B_1+C_1 against B_i+C_i
    assert len(bundle.plan.weighings) == 4
    assert all(len(w.left) == len(w.right) for w in bundle.plan.weighings)
    assert {len(bundle.plan.weighings[0].left), len(bundle.plan.weighings[2].left)} == {25, 3}


def test_triple_case_judge_count_at_scale():
    bundle = build_triple_case(ProblemInstance(80, 3, 2))
    assert count_consistent(80, 3, bundle.transcript()) == 24 * 24 * 23 + 2 + 4
    assert_bundle_claims_hold(bundle)


@pytest.mark.parametrize("t,f,d", [(9, 2, 1), (14, 3, 2), (23, 5, 3), (80, 3, 2)])
def test_triple_case_bundles(t, f, d):
    bundle = build_triple_case(ProblemInstance(t, f, d))
    assert_bundle_claims_hold(bundle)


def test_triple_case_nine_coins_family():
    bundle = build_triple_case(ProblemInstance(9, 2, 1))
    transcript = bundle.transcript()
    assert count_consistent(9, 2, transcript) == 6
    assert consistent_family_from_cases(bundle.cases) == brute_consistent(
        9, 2, transcript
    )
    assert_cases_are_the_judge_vectors(bundle)


def test_triple_case_preconditions():
    with pytest.raises(ConstructionError, match="not divide t"):
        build_triple_case(ProblemInstance(80, 4, 3))
    with pytest.raises(ConstructionError, match=">= 4"):
        build_triple_case(ProblemInstance(7, 2, 1))
    with pytest.raises(ConstructionError, match="0 < d < f"):
        build_triple_case(ProblemInstance(80, 3, 4))


def test_triple_case_size_identity():
    # r piles of size k+1 and f-r piles of size k recover t = f*k + r
    for f in range(2, 7):
        for k in range(4, 11):
            for r in range(1, f):
                t = f * k + r
                bundle = build_triple_case(ProblemInstance(t, f, 1))
                covered = frozenset().union(
                    *(p.coins for case in bundle.cases.cases for p in case)
                )
                assert covered == frozenset(range(t))
                group_sizes = sorted(
                    len(a.coins) + len(b.coins) + len(c.coins)
                    for a, b, c in zip(*(case for case in bundle.cases.cases))
                )
                assert group_sizes == [k] * (f - r) + [k + 1] * r


def test_official_structure_and_counts():
    bundle = build_official(ProblemInstance(80, 3, 2))
    assert bundle.expected_outcomes == (
        Outcome.BALANCED,
        Outcome.BALANCED,
        Outcome.RIGHT_LIGHTER,
    )
    transcript, verdict, _ = assert_bundle_claims_hold(bundle)
    assert verdict.consistent_count_f == 8000


@pytest.mark.parametrize("t", [8, 16, 80])
def test_official_bundles(t):
    bundle = build_official(ProblemInstance(t, 3, 2))
    assert_bundle_claims_hold(bundle)


def test_official_family_matches_judge_small():
    for t in (8, 16):
        bundle = build_official(ProblemInstance(t, 3, 1))
        transcript = bundle.transcript()
        assert consistent_family_from_cases(bundle.cases) == brute_consistent(
            t, 3, transcript
        )
        assert_cases_are_the_judge_vectors(bundle)


def test_official_preconditions():
    with pytest.raises(ConstructionError, match="f = 3"):
        build_official(ProblemInstance(80, 4, 2))
    with pytest.raises(ConstructionError, match="divisible by 8"):
        build_official(ProblemInstance(81, 3, 2))
    with pytest.raises(ConstructionError, match="0 < d < 3"):
        build_official(ProblemInstance(80, 3, 4))


def test_leftover_reveal_reference_case():
    bundle = build_leftover_reveal(ProblemInstance(80, 3, 2))
    transcript, verdict, report = assert_bundle_claims_hold(bundle)
    assert verdict.consistent_count_f == 16900
    # the two leftovers plus the coin borrowed from the first pile
    assert bundle.revealed_expected == frozenset({78, 79, 25})
    assert report.revealed_real == frozenset({78, 79, 25})
    assert len(bundle.plan.weighings) == 4  # 2 pile weighings + 2 chain links


@pytest.mark.parametrize("t,f,d", [(80, 3, 2), (100, 3, 2), (50, 4, 3), (14, 4, 2)])
def test_leftover_reveal_bundles(t, f, d):
    bundle = build_leftover_reveal(ProblemInstance(t, f, d))
    transcript, verdict, report = assert_bundle_claims_hold(bundle)
    r = t % f
    assert len(report.revealed_real) == max(r, d + 1)
    _, prob = uniform_best_guess(t, f, transcript)
    assert prob == Fraction(1, t // f - ceil(d / f))


def test_leftover_reveal_family_matches_judge_small():
    bundle = build_leftover_reveal(ProblemInstance(14, 4, 2))
    assert_cases_are_the_judge_vectors(bundle)
    assert consistent_family_from_cases(bundle.cases) == brute_consistent(
        14, 4, bundle.transcript()
    )


def test_leftover_reveal_preconditions():
    with pytest.raises(ConstructionError, match="not divide t"):
        build_leftover_reveal(ProblemInstance(81, 3, 2))
    with pytest.raises(ConstructionError, match="not divide d"):
        build_leftover_reveal(ProblemInstance(80, 3, 6))
    with pytest.raises(ConstructionError, match="borrow"):
        build_leftover_reveal(ProblemInstance(7, 3, 5))


def test_reference_pile_cases():
    bundle = build_reference_pile(ProblemInstance(80, 3, 2))
    transcript, verdict, report = assert_bundle_claims_hold(bundle)
    assert verdict.consistent_count_f == 8000
    assert report.revealed_real == frozenset(range(60, 80))
    _, prob = uniform_best_guess(80, 3, transcript)
    assert prob == Fraction(1, 20)

    small = build_reference_pile(ProblemInstance(8, 3, 2))
    _, _, report = assert_bundle_claims_hold(small)
    assert len(report.revealed_real) == 2
    assert consistent_family_from_cases(small.cases) == brute_consistent(
        8, 3, small.transcript()
    )


@pytest.mark.parametrize("t,f,d", [(80, 3, 2), (8, 3, 2), (12, 2, 1)])
def test_reference_pile_bundles(t, f, d):
    assert_bundle_claims_hold(build_reference_pile(ProblemInstance(t, f, d)))


def test_reference_pile_preconditions():
    with pytest.raises(ConstructionError, match="does not divide"):
        build_reference_pile(ProblemInstance(81, 3, 2))
    with pytest.raises(ConstructionError, match="0 < d < f"):
        build_reference_pile(ProblemInstance(80, 3, 4))


def test_case_families_match_judge_at_full_scale():
    instance = ProblemInstance(80, 3, 2)
    for builder in (build_official, build_leftover_reveal, build_reference_pile):
        assert_cases_are_the_judge_vectors(builder(instance))


def test_every_builtin_strategy_declares_the_judge_vectors():
    checked = 0
    for t in range(3, 25):
        for f in range(1, t):
            for d in range(t + 1):
                for name, build in BUILDERS.items():
                    for a in range(2, f + 1) if name == "equal-piles" else [None]:
                        try:
                            instance = ProblemInstance(t, f, d)
                            bundle = build(instance, a) if a else build(instance)
                        except ValueError:
                            continue  # d = f, or a precondition of the strategy fails
                        assert_cases_are_the_judge_vectors(bundle)
                        checked += 1
    assert checked > 2000
