"""Acceptance suite: every headline claim, rerun at full scale.

Each test prints one pass line (visible with `pytest -s` or `-rA`).  The
brute-force subset and pair-partition enumerations here are deliberately
independent of the library's counting paths.
"""

import random
import time
from fractions import Fraction
from math import ceil

from discreet_weighings import (
    ProblemInstance,
    Transcript,
    WeighingPlan,
    build_equal_piles,
    build_leftover_reveal,
    build_official,
    build_reference_pile,
    build_triple_case,
    classify_privacy,
    conjugate,
    count_consistent,
    equal_piles_factor,
    minimax_distribution,
    optimal_f2_new_possibilities,
    revealing_metrics,
    search_discreet,
    simulate_transcript,
    uniform_best_guess,
    verify_proof,
)
from discreet_weighings.metrics import approx3
from helpers import (
    brute_best_guess,
    brute_consistent,
    brute_optimal_pairs,
    consistent_family_from_cases,
    random_fakes,
    random_plan,
)


def report(criterion, message):
    print(f"criterion {criterion}: PASS — {message}")


def test_criterion_01_two_fakes_in_two_piles():
    instance = ProblemInstance(80, 2, 1)
    bundle = build_equal_piles(instance, 2)
    transcript = bundle.transcript()
    assert count_consistent(2, transcript) == 1600
    assert brute_consistent(80, 2, transcript) == consistent_family_from_cases(bundle.cases)
    metrics = revealing_metrics(80, 2, 1600)
    assert metrics.factor_x == Fraction(3160, 1600)
    assert approx3(metrics.factor_x) == 1.975
    assert metrics.coefficient_r == Fraction(1560, 3160)
    report(1, "80-2-1 equal piles: count 1600, X = 3160/1600, R = 1560/3160")


def test_criterion_02_official_plan():
    instance = ProblemInstance(80, 3, 2)
    bundle = build_official(instance)
    transcript = bundle.transcript()
    verdict = verify_proof(instance, transcript, bundle.placement)
    assert verdict.valid
    assert classify_privacy(instance, transcript).discreet
    assert verdict.consistent_count_f == 8000
    metrics = revealing_metrics(80, 3, 8000)
    assert metrics.factor_x == Fraction(82160, 8000)
    assert approx3(metrics.factor_x) == 10.27
    assert approx3(metrics.coefficient_r) == 0.903
    report(2, "80-3-2 official: valid, discreet, count 8000, X = 10.27, R ~ 0.903")


def test_criterion_03_leftover_reveal():
    instance = ProblemInstance(80, 3, 2)
    bundle = build_leftover_reveal(instance)
    transcript = bundle.transcript()
    verdict = verify_proof(instance, transcript, bundle.placement)
    assert verdict.valid
    privacy = classify_privacy(instance, transcript)
    assert not privacy.discreet
    assert len(privacy.revealed_real) == 3
    assert verdict.consistent_count_f == 16900
    metrics = revealing_metrics(80, 3, 16900)
    assert float(round(metrics.factor_x, 2)) == 4.86
    assert approx3(metrics.coefficient_r) == 0.794
    _, prob = brute_best_guess(brute_consistent(80, 3, transcript))
    assert prob == Fraction(1, 25) == uniform_best_guess(3, transcript)[1]
    report(3, "80-3-2 leftover-reveal: 3 coins exposed, count 16900, guess 1/25")


def test_criterion_04_reference_pile():
    instance = ProblemInstance(80, 3, 2)
    bundle = build_reference_pile(instance)
    transcript = bundle.transcript()
    verdict = verify_proof(instance, transcript, bundle.placement)
    assert verdict.valid
    privacy = classify_privacy(instance, transcript)
    assert not privacy.discreet
    assert len(privacy.revealed_real) == 20
    assert verdict.consistent_count_f == 8000
    official = build_official(instance)
    assert verdict.consistent_count_f == verify_proof(
        instance, official.transcript(), official.placement
    ).consistent_count_f
    metrics = revealing_metrics(80, 3, 8000)
    assert approx3(metrics.factor_x) == 10.27
    _, prob = brute_best_guess(brute_consistent(80, 3, transcript))
    assert prob == Fraction(1, 20) == uniform_best_guess(3, transcript)[1]
    report(4, "80-3-2 reference-pile: 20 coins exposed, count 8000, guess 1/20")


def test_criterion_05_triple_case_structure():
    instance = ProblemInstance(80, 3, 2)
    bundle = build_triple_case(instance)
    transcript = bundle.transcript()
    assert classify_privacy(instance, transcript).discreet

    # oracle: full enumeration of all C(80,3) = 82 160 subsets
    survivors = brute_consistent(80, 3, transcript)
    assert len(survivors) == 13254
    assert survivors == consistent_family_from_cases(bundle.cases)
    assert count_consistent(3, transcript) == 13254

    distribution, value = minimax_distribution(bundle.cases)
    assert distribution == (Fraction(23, 25), Fraction(1, 25), Fraction(1, 25))
    assert value == Fraction(1, 25)
    report(5, "80-3-2 triple-case: family matches cases, count 13254, minimax 1/25")


def test_criterion_06_equal_piles_four_fakes():
    instance = ProblemInstance(80, 4, 3)

    four = build_equal_piles(instance, 4)
    verdict = verify_proof(instance, four.transcript(), four.placement)
    assert verdict.valid and verdict.consistent_count_f == 160000
    factor = equal_piles_factor(80, 4, 4)
    assert factor == Fraction(1581580, 160000)
    assert approx3(factor) == 9.885

    two = build_equal_piles(instance, 2)
    verdict = verify_proof(instance, two.transcript(), two.placement)
    assert verdict.valid and verdict.consistent_count_f == 608400
    metrics = revealing_metrics(80, 4, 608400)
    assert float(round(metrics.factor_x, 2)) == 2.6
    assert approx3(metrics.coefficient_r) == 0.615
    report(6, "80-4-3 equal piles: a=4 count 160000 (X ~ 9.885); a=2 count 608400 (X ~ 2.60)")


def test_criterion_07_impossibility_suite():
    start = time.monotonic()
    for t in (3, 5, 7):
        assert search_discreet(t, 2, 1, 3) is None, f"(t={t}, 2, 1)"
    for t in range(2, 7):
        for d in range(0, t + 1):
            if d != 1:
                assert search_discreet(t, 1, d, 3) is None, f"({t}, 1, {d})"
    for t in range(3, 7):
        for d in range(0, t + 1):
            if d != t - 1:
                assert search_discreet(t, t - 1, d, 3) is None, f"({t}, {t-1}, {d})"
    for t in range(3, 9):
        assert search_discreet(t, 2, 0, 3) is None, f"({t}, 2, 0)"
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"impossibility suite took {elapsed:.0f}s (budget 300s)"
    report(
        7,
        f"no discreet plan within 3 weighings across all impossible families "
        f"({elapsed:.1f}s; certificates cover only plans of at most 3 weighings)",
    )


def test_criterion_08_optimality_suite():
    for t in range(4, 21, 2):
        value, _ = optimal_f2_new_possibilities(t)
        assert value == (t // 2) ** 2
        assert value == brute_optimal_pairs(t)
    for t in range(9, 22, 2):
        value, _ = optimal_f2_new_possibilities(t)
        assert value == (t // 2 - 2) * (t // 2 - 3) + 4
        assert value == brute_optimal_pairs(t)
    assert optimal_f2_new_possibilities(80) == (1600, ((40, 40),))
    report(8, "optimal counts match closed forms and brute-force pair enumeration")


def test_criterion_09_leftover_reveal_generalized():
    for t, f, d in ((80, 3, 2), (100, 3, 2), (50, 4, 3)):
        instance = ProblemInstance(t, f, d)
        bundle = build_leftover_reveal(instance)
        transcript = bundle.transcript()
        verdict = verify_proof(instance, transcript, bundle.placement)
        assert verdict.valid
        privacy = classify_privacy(instance, transcript)
        assert not privacy.discreet
        assert len(privacy.revealed_real) == d + 1
        _, prob = uniform_best_guess(f, transcript)
        assert prob == Fraction(1, t // f - ceil(d / f))
    report(9, "leftover-reveal at (80,3,2), (100,3,2), (50,4,3): d+1 coins, guess bound met")


def test_criterion_10_property_suite():
    import itertools

    # conjugation is an involution on every itinerary of length <= 6
    for length in range(7):
        for symbols in itertools.product("LRO", repeat=length):
            itinerary = "".join(symbols)
            assert conjugate(conjugate(itinerary)) == itinerary

    rng = random.Random(2024)

    # appending weighings never increases the consistent count
    for _ in range(25):
        t = rng.randint(4, 12)
        plan = random_plan(rng, t, rng.randint(2, 4))
        fakes = random_fakes(rng, t, rng.randint(1, 3))
        transcript = simulate_transcript(plan, fakes)
        for s in (1, 2, 3):
            counts = [
                count_consistent(
                    s,
                    Transcript(
                        WeighingPlan(t, plan.weighings[:cut]),
                        transcript.outcomes[:cut],
                    ),
                )
                for cut in range(len(plan.weighings) + 1)
            ]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    # X > 1 and 0 < R < 1 for every nonempty transcript
    for _ in range(40):
        t = rng.randint(3, 12)
        f = rng.randint(1, t - 1)
        plan = random_plan(rng, t, rng.randint(1, 3))
        transcript = simulate_transcript(plan, random_fakes(rng, t, f))
        metrics = revealing_metrics(t, f, count_consistent(f, transcript))
        assert metrics.factor_x > 1
        assert 0 < metrics.coefficient_r < 1

    # the judge's best guess never drops below f/t, and strictly beats it
    # for indiscreet proofs
    pool = [
        build_equal_piles(ProblemInstance(80, 2, 1), 2),
        build_equal_piles(ProblemInstance(80, 4, 3), 2),
        build_equal_piles(ProblemInstance(12, 4, 1), 2),
        build_official(ProblemInstance(80, 3, 2)),
        build_official(ProblemInstance(16, 3, 1)),
        build_triple_case(ProblemInstance(80, 3, 2)),
        build_triple_case(ProblemInstance(9, 2, 1)),
        build_triple_case(ProblemInstance(23, 5, 3)),
        build_leftover_reveal(ProblemInstance(80, 3, 2)),
        build_leftover_reveal(ProblemInstance(14, 4, 2)),
        build_reference_pile(ProblemInstance(80, 3, 2)),
        build_reference_pile(ProblemInstance(12, 2, 1)),
    ]
    rng.shuffle(pool)
    for bundle in pool:
        instance = bundle.instance
        transcript = bundle.transcript()
        assert verify_proof(instance, transcript, bundle.placement).valid
        _, prob = uniform_best_guess(instance.f, transcript)
        floor_rate = Fraction(instance.f, instance.t)
        assert prob >= floor_rate
        if not classify_privacy(instance, transcript).discreet:
            assert prob > floor_rate

    # pile-size bookkeeping of the triple-case family: r(k+1) + (f-r)k = t
    for f in range(2, 7):
        for k in range(4, 11):
            for r in range(1, f):
                t = f * k + r
                bundle = build_triple_case(ProblemInstance(t, f, 1))
                total = sum(
                    len(p.coins) for case in bundle.cases.cases for p in case
                )
                assert total == t == r * (k + 1) + (f - r) * k

    report(10, "involution, monotonicity, 0<R<1, guess floor, and size identity hold")
