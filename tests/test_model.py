import random

import pytest

from discreet_weighings import (
    Outcome,
    ProblemInstance,
    Transcript,
    ValidationError,
    Weighing,
    WeighingPlan,
    build_official,
    build_triple_case,
    conjugate,
    itinerary_of,
    partition_by_itinerary,
    plan_from_json,
    plan_to_json,
    simulate_outcome,
    simulate_transcript,
    transcript_from_json,
    transcript_to_json,
    validate_plan,
)
from discreet_weighings.model import coins_from_json, transcript_for_plan
from helpers import itinerary_groups, many_class_plan, random_fakes, random_plan

HALVES = Weighing(frozenset(range(40)), frozenset(range(40, 80)))


def test_problem_instance_invariants():
    ProblemInstance(80, 3, 2)
    with pytest.raises(ValueError):
        ProblemInstance(80, 0, 2)
    with pytest.raises(ValueError):
        ProblemInstance(80, 80, 2)
    with pytest.raises(ValueError):
        ProblemInstance(80, 3, 3)
    with pytest.raises(ValueError):
        ProblemInstance(80, 3, 81)


def test_problem_instance_refuses_non_integer_counts():
    # 3.0 once reached the judge and failed there with a TypeError; True
    # would silently stand for 1
    for t, f, d in ((80, 3.0, 2), (80.0, 3, 2), (80, 3, True), ("80", 3, 2)):
        with pytest.raises(ValueError, match="must be an integer"):
            ProblemInstance(t, f, d)


def test_simulate_outcome_examples():
    assert simulate_outcome(HALVES, {5, 50}) is Outcome.BALANCED
    assert simulate_outcome(HALVES, {5, 6}) is Outcome.LEFT_LIGHTER
    assert simulate_outcome(Weighing({0}, {1}), set()) is Outcome.BALANCED


def test_outcome_depends_only_on_pan_fake_counts():
    rng = random.Random(41)
    weighing = Weighing(frozenset(range(0, 10)), frozenset(range(10, 20)))
    for _ in range(50):
        a = frozenset(rng.sample(range(30), rng.randint(0, 6)))
        b = frozenset(rng.sample(range(30), rng.randint(0, 6)))
        if (len(a & weighing.left), len(a & weighing.right)) == (
            len(b & weighing.left),
            len(b & weighing.right),
        ):
            assert simulate_outcome(weighing, a) is simulate_outcome(weighing, b)


def test_simulate_outcome_rejects_bad_weighings():
    with pytest.raises(ValidationError):
        simulate_outcome(Weighing({0, 1}, {1, 2}), set())  # overlap
    with pytest.raises(ValidationError):
        simulate_outcome(Weighing({0, 1, 2}, {3, 4}), set())  # unequal pans
    with pytest.raises(ValidationError):
        simulate_outcome(Weighing(set(), set()), set())  # empty pans


def test_simulate_outcome_refuses_negative_fakes():
    # a lone weighing has no t to range-check against, but a negative
    # index names no coin, as for a pile's coins
    with pytest.raises(ValidationError, match=r"fake coins \[-5\] are negative"):
        simulate_outcome(Weighing({0}, {1}), {-5})
    with pytest.raises(ValidationError, match=r"fake coins \[-2, -1\] are negative"):
        simulate_outcome(HALVES, {-1, 3, -2})
    assert simulate_outcome(Weighing({0}, {1}), {0, 7}) is Outcome.LEFT_LIGHTER


def test_simulate_transcript_examples():
    plan = WeighingPlan(80, (HALVES,))
    transcript = simulate_transcript(plan, {3, 47})
    assert transcript.outcomes == (Outcome.BALANCED,)

    bundle = build_official(ProblemInstance(80, 3, 2))
    transcript = simulate_transcript(bundle.plan, bundle.placement)
    assert transcript.outcomes == (
        Outcome.BALANCED,
        Outcome.BALANCED,
        Outcome.RIGHT_LIGHTER,
    )

    empty = WeighingPlan(5, ())
    assert simulate_transcript(empty, {1, 2}).outcomes == ()


def test_simulate_transcript_range_checks():
    plan = WeighingPlan(4, (Weighing({0, 1}, {2, 3}),))
    with pytest.raises(ValidationError):
        simulate_transcript(plan, {0, 7})
    bad_plan = WeighingPlan(3, (Weighing({0, 1}, {2, 3}),))
    with pytest.raises(ValidationError):
        simulate_transcript(bad_plan, {0})


def test_transcript_length_must_match_plan():
    plan = WeighingPlan(4, (Weighing({0}, {1}),))
    with pytest.raises(ValueError):
        Transcript(plan, (Outcome.BALANCED, Outcome.BALANCED))


@pytest.mark.parametrize("outcome", ["balanced", 1, None])
def test_transcript_outcomes_must_be_outcomes(outcome):
    # neither strings nor signs are coerced; they would fail later in the judge
    plan = WeighingPlan(4, (Weighing({0}, {1}),))
    with pytest.raises(ValidationError, match="^outcomes must be Outcome members"):
        Transcript(plan, (outcome,))


def test_itinerary_basics():
    plan = WeighingPlan(4, (Weighing({0}, {1}), Weighing({0}, {2})))
    assert itinerary_of(plan, 0) == "LL"
    assert itinerary_of(plan, 3) == "OO"
    assert itinerary_of(plan, 1) == "RO"
    with pytest.raises(ValidationError):
        itinerary_of(plan, 4)
    # True and 1.0 would stand for coin 1, and "1" fail with a TypeError
    for coin in (True, 1.0, "1"):
        with pytest.raises(ValidationError, match="^coin must be an integer"):
            itinerary_of(plan, coin)


@pytest.mark.parametrize("t", ["4", 4.0, True, None])
def test_itinerary_of_refuses_a_coin_count_that_is_not_an_int(t):
    # "4" once failed with a bare TypeError, and True was taken as t = 1
    plan = WeighingPlan(t, (Weighing({0}, {1}),))
    with pytest.raises(ValidationError, match="^coin count must be an integer"):
        itinerary_of(plan, 0)


def test_itinerary_of_triple_case_nine_coins():
    # layout: A1={0,1} A2={2} B1={3} B2={4,5} C1={6,7} C2={8}
    bundle = build_triple_case(ProblemInstance(9, 2, 1))
    assert itinerary_of(bundle.plan, 3) == "LL"
    assert all(itinerary_of(bundle.plan, c) == "RR" for c in (4, 5))
    sizes = sorted(len(c) for c in partition_by_itinerary(bundle.plan).values())
    assert sizes == [1, 1, 1, 2, 2, 2]


def test_conjugate():
    assert conjugate("LRO") == "RLO"
    assert conjugate("OO") == "OO"
    with pytest.raises(ValidationError):
        conjugate("LXR")


def test_conjugate_is_involution_and_all_o_is_unique_fixed_point():
    import itertools

    for length in range(7):
        fixed = []
        for symbols in itertools.product("LRO", repeat=length):
            itinerary = "".join(symbols)
            assert conjugate(conjugate(itinerary)) == itinerary
            if conjugate(itinerary) == itinerary:
                fixed.append(itinerary)
        assert fixed == ["O" * length]


def test_partition_by_itinerary():
    plan = WeighingPlan(80, (HALVES,))
    groups = partition_by_itinerary(plan)
    assert set(groups) == {"L", "R"}
    assert len(groups["L"]) == len(groups["R"]) == 40

    empty = WeighingPlan(7, ())
    assert partition_by_itinerary(empty) == {"": frozenset(range(7))}


def test_partition_covers_all_coins_disjointly():
    rng = random.Random(11)
    for _ in range(25):
        t = rng.randint(4, 12)
        plan = random_plan(rng, t, rng.randint(1, 3))
        groups = partition_by_itinerary(plan)
        union = set()
        total = 0
        for coins in groups.values():
            assert not (union & coins)
            union |= coins
            total += len(coins)
        assert union == set(range(t)) and total == t


def test_partition_matches_coin_by_coin_itineraries():
    # the same classes, coins and itinerary order as asking every coin
    rng = random.Random(14)
    plans = [many_class_plan(), WeighingPlan(1, ()), build_triple_case(ProblemInstance(401, 10, 9)).plan]
    plans += [random_plan(rng, rng.randint(2, 40), rng.randint(0, 6)) for _ in range(300)]
    for plan in plans:
        assert list(partition_by_itinerary(plan).items()) == list(itinerary_groups(plan).items())
    assert len(partition_by_itinerary(plans[0])) == 1499


@pytest.mark.parametrize(
    "plan,message",
    [
        (WeighingPlan(0, ()), "coin count must be positive, got t=0"),
        (WeighingPlan(4, (Weighing({0, 1}, {1, 2}),)), "weighing 0: pans overlap on coins [1]"),
        (
            WeighingPlan(4, (Weighing({0}, {1}), Weighing({0, 1}, {2}))),
            "weighing 1: unequal pans: 2 vs 1 coins",
        ),
        (WeighingPlan(4, (Weighing(set(), set()),)), "weighing 0: empty pan"),
        (
            WeighingPlan(4, (Weighing({0, 5}, {1, -2}),)),
            "weighing 0: invalid coin indices ['-2']; weighing 0: coins [-2, 5] outside 0..3",
        ),
        (WeighingPlan(4, (Weighing({"a"}, {1}),)), "weighing 0: invalid coin indices [\"'a'\"]"),
    ],
    ids=["no-coins", "overlap", "unequal", "empty", "out-of-range", "not-an-int"],
)
def test_partition_reports_an_invalid_plan_unchanged(plan, message):
    with pytest.raises(ValidationError) as caught:
        partition_by_itinerary(plan)
    assert str(caught.value) == message == "; ".join(validate_plan(plan))


def test_validate_plan_reports():
    good = build_official(ProblemInstance(80, 3, 2)).plan
    assert validate_plan(good) == []

    overlap = WeighingPlan(4, (Weighing({0, 1}, {1, 2}),))
    assert any("overlap" in p for p in validate_plan(overlap))

    unequal = WeighingPlan(6, (Weighing({0, 1, 2}, {3, 4}),))
    assert any("unequal" in p for p in validate_plan(unequal))

    out_of_range = WeighingPlan(3, (Weighing({0}, {5}),))
    assert any("outside" in p for p in validate_plan(out_of_range))

    # True once passed as coin 1, and could reach a report as true
    with_bool = WeighingPlan(4, (Weighing({True, 2}, {0, 3}),))
    assert validate_plan(with_bool) == ["weighing 0: invalid coin indices ['True']"]

    # every message of a weighing, in order; at t = 1 a bool is also outside
    mixed = Weighing({0, True, 3}, {0, "a"})
    expected = [
        "pans overlap on coins [0]",
        "unequal pans: 3 vs 2 coins",
        "invalid coin indices [\"'a'\", 'True']",
    ]
    assert mixed.violations() == expected
    assert validate_plan(WeighingPlan(1, (mixed,))) == [
        f"weighing 0: {p}" for p in expected + ["coins [True, 3] outside 0..0"]
    ]

    # a coin count that is not an int is the plan's only problem, and every
    # entry point that validates the plan refuses it
    pair = (Weighing({0}, {1}),)
    for t, shown in (("4", '"4"'), (4.0, "4.0"), (True, "true"), (None, "null")):
        plan = WeighingPlan(t, pair)
        message = f"coin count must be an integer, got {shown}"
        assert validate_plan(plan) == [message]
        for call in (lambda: simulate_transcript(plan, [0]), lambda: partition_by_itinerary(plan)):
            with pytest.raises(ValidationError) as caught:
                call()
            assert str(caught.value) == message


def test_relabeling_coins_preserves_outcomes():
    rng = random.Random(7)
    for _ in range(30):
        t = rng.randint(4, 12)
        plan = random_plan(rng, t, rng.randint(1, 3))
        fakes = random_fakes(rng, t, rng.randint(1, t - 1))
        perm = list(range(t))
        rng.shuffle(perm)
        relabeled = WeighingPlan(
            t,
            tuple(
                Weighing(
                    frozenset(perm[c] for c in w.left),
                    frozenset(perm[c] for c in w.right),
                )
                for w in plan.weighings
            ),
        )
        relabeled_fakes = frozenset(perm[c] for c in fakes)
        assert (
            simulate_transcript(plan, fakes).outcomes
            == simulate_transcript(relabeled, relabeled_fakes).outcomes
        )


def test_plan_json_round_trip():
    plan = build_official(ProblemInstance(80, 3, 2)).plan
    assert plan_from_json(plan_to_json(plan)) == plan

    transcript = simulate_transcript(plan, {0, 30, 50})
    data = transcript_to_json(transcript)
    assert data["outcomes"] == [o.value for o in transcript.outcomes]
    assert transcript_from_json(data) == transcript


def test_coins_from_json_reports_each_repeated_coin_once_in_order():
    # found in one pass: counting every coin's copies on its own took time
    # quadratic in the list's length
    listed = list(range(100_000)) + [99_999, 7, 7, 512, 7]
    random.Random(3).shuffle(listed)
    with pytest.raises(ValidationError) as exc:
        coins_from_json(listed, "placement")
    assert str(exc.value) == "placement lists coins [7, 512, 99999] more than once"
    assert coins_from_json(list(range(100_000)), "placement") == frozenset(range(100_000))


def test_malformed_json_rejected():
    with pytest.raises(ValidationError):
        plan_from_json({"weighings": []})
    with pytest.raises(ValidationError):
        plan_from_json({"t": 4, "weighings": [{"left": [0]}]})
    with pytest.raises(ValidationError):
        transcript_from_json({"t": 4, "weighings": [], "outcomes": ["tilted"]})
    # the CLI reads the plan first, so only a library caller reaches this
    plan = WeighingPlan(4, (Weighing({0}, {1}),))
    with pytest.raises(ValidationError, match="^malformed transcript JSON: the document must"):
        transcript_for_plan(plan, [])
