import itertools
import random
from math import comb, prod

import pytest

from discreet_weighings import (
    InvalidProofError,
    Outcome,
    ProblemInstance,
    Transcript,
    ValidationError,
    Weighing,
    WeighingPlan,
    build_leftover_reveal,
    build_official,
    build_reference_pile,
    build_triple_case,
    classify_privacy,
    count_consistent,
    evaluate_proof,
    simulate_transcript,
    uniform_best_guess,
    verify_proof,
)
from discreet_weighings import model
from discreet_weighings.judge import consistent_count_vectors
from helpers import (
    brute_best_guess,
    brute_consistent,
    brute_count_vectors,
    brute_pair_count,
    random_fakes,
    random_plan,
)

BALANCED_PAIR = Transcript(
    WeighingPlan(4, (Weighing({0, 1}, {2, 3}),)), (Outcome.BALANCED,)
)


def test_consistent_assignments_small_example():
    # oracle first: enumerate all C(4,2)=6 subsets directly
    expected = brute_consistent(4, 2, BALANCED_PAIR)
    assert expected == {
        frozenset({0, 2}),
        frozenset({0, 3}),
        frozenset({1, 2}),
        frozenset({1, 3}),
    }
    assert count_consistent(4, 2, BALANCED_PAIR) == len(expected)
    assert count_consistent(4, 1, BALANCED_PAIR) == 0


def test_consistent_assignment_edge_sizes():
    assert count_consistent(4, 0, BALANCED_PAIR) == 1  # the empty set
    unbalanced = Transcript(BALANCED_PAIR.plan, (Outcome.LEFT_LIGHTER,))
    assert count_consistent(4, 0, unbalanced) == 0
    empty_plan = Transcript(WeighingPlan(4, ()), ())
    assert count_consistent(4, 2, empty_plan) == comb(4, 2)
    with pytest.raises(ValueError):
        count_consistent(4, 5, BALANCED_PAIR)
    with pytest.raises(ValueError):
        count_consistent(5, 2, BALANCED_PAIR)  # t disagrees with the plan


def test_counting_path_matches_brute_force_on_random_plans():
    rng = random.Random(20)
    for _ in range(40):
        t = rng.randint(4, 10)
        plan = random_plan(rng, t, rng.randint(1, 3))
        fakes = random_fakes(rng, t, rng.randint(1, 3))
        transcript = simulate_transcript(plan, fakes)
        for s in range(0, 4):
            expected = brute_consistent(t, s, transcript)
            assert count_consistent(t, s, transcript) == len(expected)


def test_count_vectors_match_the_enumerator_on_random_classes():
    # every sign vector and every size 0..t+1; the cost of the enumerator
    # oracle grows with compositions * sign vectors, which caps each draw
    rng = random.Random(31)
    structures = 0
    while structures < 100:
        w = rng.randint(0, 4)
        k = rng.randint(0, 9)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        if prod(n + 1 for n in sizes) * 3**w > 30000:
            continue
        structures += 1
        symbols = ["".join(rng.choice("LRO") for _ in range(w)) for _ in range(k)]
        t = sum(sizes)
        for codes in itertools.product((0, 1, -1), repeat=w):
            for s in range(t + 2):
                expected = brute_count_vectors(symbols, sizes, codes, s)
                assert consistent_count_vectors(symbols, sizes, codes, s) == expected


@pytest.mark.parametrize("t,f", [(251, 7), (301, 8), (401, 10)])
def test_triple_case_counts_at_scale(t, f):
    # closed form: one fake in every A pile, every B pile or every C pile
    k, r = divmod(t, f)
    a_sizes = [k - 2] * r + [k - 3] * (f - r)
    b_sizes = [1] * r + [2] * (f - r)
    c_sizes = [2] * r + [1] * (f - r)
    instance = ProblemInstance(t, f, f - 1)
    bundle = build_triple_case(instance)
    result = evaluate_proof(instance, bundle.transcript(), bundle.placement)
    assert result.verdict.consistent_count_f == prod(a_sizes) + prod(b_sizes) + prod(c_sizes)
    assert result.verdict.consistent_count_d == 0
    assert result.verdict.valid and result.privacy.discreet


def test_counting_plans_with_more_classes_than_the_recursion_limit():
    # twelve random 500 v 500 weighings of 1500 coins put nearly every coin
    # in a class of its own: far more classes than Python may recurse
    rng = random.Random(1)
    weighings = []
    for _ in range(12):
        coins = rng.sample(range(1500), 1000)
        weighings.append(Weighing(frozenset(coins[:500]), frozenset(coins[500:])))
    plan = WeighingPlan(1500, tuple(weighings))
    assert len(model.partition_by_itinerary(plan)) > 1000
    for fakes in ({0, 1}, {10, 1400}):
        transcript = simulate_transcript(plan, fakes)
        assert count_consistent(1500, 2, transcript) == brute_pair_count(transcript)
        singles = brute_consistent(1500, 1, transcript)
        assert count_consistent(1500, 1, transcript) == len(singles)


def test_evaluate_proof_validates_the_plan_once(monkeypatch):
    calls = []
    original = model.validate_plan

    def counted(plan):
        calls.append(plan)
        return original(plan)

    monkeypatch.setattr(model, "validate_plan", counted)
    instance = ProblemInstance(80, 3, 2)
    bundle = build_official(instance)
    transcript = bundle.transcript()
    calls.clear()
    assert evaluate_proof(instance, transcript, bundle.placement).verdict.valid
    assert calls == [transcript.plan]


def test_plan_problems_come_before_stray_placement_coins():
    transcript = Transcript(WeighingPlan(4, (Weighing({0, 1}, {1, 2}),)), (Outcome.BALANCED,))
    instance = ProblemInstance(4, 2, 1)
    for judge in (verify_proof, evaluate_proof):
        with pytest.raises(ValidationError, match=r"^weighing 0: pans overlap on coins \[1\]$"):
            judge(instance, transcript, {0, 7})


def test_official_strategy_counts():
    bundle = build_official(ProblemInstance(80, 3, 2))
    transcript = bundle.transcript()
    assert count_consistent(80, 3, transcript) == 8000
    assert count_consistent(80, 2, transcript) == 0


def test_verify_proof_official():
    instance = ProblemInstance(80, 3, 2)
    bundle = build_official(instance)
    verdict = verify_proof(instance, bundle.transcript(), bundle.placement)
    assert verdict.valid
    assert verdict.consistent_count_f == 8000
    assert verdict.consistent_count_d == 0
    assert verdict.to_json() == {"valid": True, "consistent_f": 8000, "consistent_d": 0}


def test_three_equal_groups_alone_do_not_prove_three_fakes():
    # three piles of 26 balanced, two coins left out: the pair of leftovers
    # still explains everything with only two fakes
    piles = [frozenset(range(26 * i, 26 * (i + 1))) for i in range(3)]
    plan = WeighingPlan(80, (Weighing(piles[0], piles[1]), Weighing(piles[0], piles[2])))
    placement = frozenset({0, 26, 52})
    instance = ProblemInstance(80, 3, 2)
    transcript = simulate_transcript(plan, placement)
    verdict = verify_proof(instance, transcript, placement)
    assert not verdict.valid
    assert verdict.consistent_count_d >= 1  # the leftover pair survives
    leftovers = frozenset({78, 79})
    assert simulate_transcript(plan, leftovers) == transcript


def test_verify_proof_empty_plan_proves_nothing():
    instance = ProblemInstance(6, 2, 1)
    transcript = Transcript(WeighingPlan(6, ()), ())
    verdict = verify_proof(instance, transcript, frozenset({0, 1}))
    assert not verdict.valid
    assert verdict.consistent_count_d == 6


def test_verify_proof_rejects_wrong_placement_size():
    instance = ProblemInstance(80, 3, 2)
    bundle = build_official(instance)
    with pytest.raises(ValueError):
        verify_proof(instance, bundle.transcript(), frozenset({0, 1}))


def test_verify_proof_inconsistent_placement_is_invalid():
    instance = ProblemInstance(4, 2, 1)
    verdict = verify_proof(instance, BALANCED_PAIR, frozenset({0, 1}))
    assert not verdict.valid
    assert verdict.consistent_count_f == 4


def test_classify_privacy_across_strategies():
    instance = ProblemInstance(80, 3, 2)

    report = classify_privacy(instance, build_official(instance).transcript())
    assert report.discreet
    assert not report.revealed_real and not report.revealed_fake

    report = classify_privacy(instance, build_leftover_reveal(instance).transcript())
    assert not report.discreet
    assert len(report.revealed_real) == 3 and not report.revealed_fake

    report = classify_privacy(instance, build_reference_pile(instance).transcript())
    assert not report.discreet
    assert len(report.revealed_real) == 20
    assert report.revealed_real == frozenset(range(60, 80))


def test_classify_privacy_requires_a_valid_proof():
    instance = ProblemInstance(6, 2, 1)
    transcript = Transcript(WeighingPlan(6, ()), ())
    with pytest.raises(InvalidProofError):
        classify_privacy(instance, transcript)


def test_privacy_categories_partition_the_coins():
    rng = random.Random(33)
    instance = ProblemInstance(10, 3, 2)
    found = 0
    while found < 5:
        plan = random_plan(rng, 10, rng.randint(1, 3))
        fakes = random_fakes(rng, 10, 3)
        transcript = simulate_transcript(plan, fakes)
        verdict = verify_proof(instance, transcript, fakes)
        if not verdict.valid:
            continue
        found += 1
        report = classify_privacy(instance, transcript)
        survivors = brute_consistent(10, 3, transcript)
        somewhere = frozenset().union(*survivors)
        everywhere = frozenset(range(10)).intersection(*survivors)
        assert report.revealed_real == frozenset(range(10)) - somewhere
        assert report.revealed_fake == everywhere
        assert not (report.revealed_real & report.revealed_fake)


def test_appending_weighings_never_increases_consistency():
    rng = random.Random(5)
    for _ in range(30):
        t = rng.randint(4, 12)
        plan = random_plan(rng, t, rng.randint(2, 4))
        fakes = random_fakes(rng, t, rng.randint(1, 3))
        transcript = simulate_transcript(plan, fakes)
        for s in (1, 2, 3):
            previous = None
            for cut in range(len(plan.weighings) + 1):
                prefix = Transcript(
                    WeighingPlan(t, plan.weighings[:cut]), transcript.outcomes[:cut]
                )
                count = count_consistent(t, s, prefix)
                if previous is not None:
                    assert count <= previous
                previous = count


def test_any_weighing_removes_some_possibility():
    # operational form of 0 < R < 1: with at least one weighing the
    # consistent count drops strictly below C(t, f)
    rng = random.Random(99)
    for _ in range(40):
        t = rng.randint(3, 12)
        f = rng.randint(1, t - 1)
        plan = random_plan(rng, t, rng.randint(1, 3))
        fakes = random_fakes(rng, t, f)
        transcript = simulate_transcript(plan, fakes)
        count = count_consistent(t, f, transcript)
        assert 1 <= count < comb(t, f)


def _random_transcripts(rng, count):
    """Small random transcripts with the placement the lawyer claims: the
    empty plan, plans of 1..3 weighings, outcomes either simulated from the
    placement or from another fake set (so many proofs are invalid)."""
    for _ in range(count):
        t = rng.randint(2, 9)
        plan = random_plan(rng, t, rng.choice((0, 1, 1, 2, 2, 3)))
        f = rng.randint(1, t - 1)
        placement = random_fakes(rng, t, f)
        source = placement if rng.random() < 0.5 else random_fakes(rng, t, rng.randint(0, t))
        yield t, f, placement, simulate_transcript(plan, source)


def test_single_pass_matches_brute_force_on_random_plans():
    rng = random.Random(2024)
    valid_seen = 0
    for t, f, placement, transcript in _random_transcripts(rng, 400):
        survivors = brute_consistent(t, f, transcript)
        for d in {0, t, rng.randint(0, t)} - {f}:
            instance = ProblemInstance(t, f, d)
            count_d = len(brute_consistent(t, d, transcript))
            result = evaluate_proof(instance, transcript, placement)
            assert result.verdict == verify_proof(instance, transcript, placement)
            assert result.verdict.consistent_count_f == len(survivors)
            assert result.verdict.consistent_count_d == count_d
            valid = placement in survivors and count_d == 0
            assert result.verdict.valid == valid
            if not valid:
                assert result.privacy is None and result.guess is None
                continue
            valid_seen += 1
            somewhere = frozenset().union(*survivors)
            everywhere = frozenset(range(t)).intersection(*survivors)
            assert result.privacy.revealed_real == frozenset(range(t)) - somewhere
            assert result.privacy.revealed_fake == everywhere
            assert result.privacy == classify_privacy(instance, transcript)
            assert result.guess == brute_best_guess(survivors)
    assert valid_seen >= 100


def test_uniform_guess_matches_brute_force_on_random_plans():
    rng = random.Random(77)
    for t, _f, _placement, transcript in _random_transcripts(rng, 300):
        for s in range(t + 1):
            survivors = brute_consistent(t, s, transcript)
            if s and survivors:
                assert uniform_best_guess(t, s, transcript) == brute_best_guess(survivors)
            else:
                with pytest.raises(ValueError):
                    uniform_best_guess(t, s, transcript)

