import copy
import dataclasses
import pickle
import random

import pytest

from discreet_weighings import (
    Outcome,
    Pile,
    ProblemInstance,
    Transcript,
    ValidationError,
    Weighing,
    WeighingPlan,
    build_official,
    build_triple_case,
    classify_privacy,
    conjugate,
    count_consistent,
    itinerary_of,
    partition_by_itinerary,
    plan_from_json,
    plan_to_json,
    simulate_transcript,
    transcript_from_json,
    transcript_to_json,
    uniform_best_guess,
    validate_plan,
    verify_proof,
)
from discreet_weighings import model
from discreet_weighings.model import coins_from_json, transcript_for_plan
from helpers import itinerary_groups, many_class_plan, random_fakes, random_plan

HALVES = Weighing(frozenset(range(40)), frozenset(range(40, 80)))


def refused_plan(t, weighings) -> str:
    """The message that building the plan raises: every problem
    `validate_plan` finds, joined by "; "."""
    with pytest.raises(ValidationError) as caught:
        WeighingPlan(t, weighings)
    return str(caught.value)


def weigh(t, weighing, fakes) -> Outcome:
    """The outcome of `weighing` alone, checked as a plan of t coins."""
    return simulate_transcript(WeighingPlan(t, (weighing,)), fakes).outcomes[0]


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


def test_one_weighing_plan_outcomes():
    assert weigh(80, HALVES, {5, 50}) is Outcome.BALANCED
    assert weigh(80, HALVES, {5, 6}) is Outcome.LEFT_LIGHTER
    assert weigh(2, Weighing({0}, {1}), set()) is Outcome.BALANCED


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
            assert weigh(30, weighing, a) is weigh(30, weighing, b)


def test_a_one_weighing_plan_rejects_bad_weighings():
    assert refused_plan(4, (Weighing({0, 1}, {1, 2}),)) == "weighing 0: pans overlap on coins [1]"
    assert refused_plan(5, (Weighing({0, 1, 2}, {3, 4}),)) == "weighing 0: unequal pans: 3 vs 2 coins"
    assert refused_plan(1, (Weighing(set(), set()),)) == "weighing 0: empty pan"


def test_a_one_weighing_plan_refuses_fakes_outside_its_coins():
    with pytest.raises(ValidationError, match=r"^placement coins \[-5\] outside 0..1$"):
        weigh(2, Weighing({0}, {1}), {-5})
    with pytest.raises(ValidationError, match=r"^placement coins \[-2, -1\] outside 0..79$"):
        weigh(80, HALVES, {-1, 3, -2})
    # `Weighing.outcome` weighs any fakes, unchecked
    with pytest.raises(ValidationError, match=r"^placement coins \[7\] outside 0..1$"):
        weigh(2, Weighing({0}, {1}), {0, 7})
    assert Weighing({0}, {1}).outcome(frozenset({0, 7})) is Outcome.LEFT_LIGHTER


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
    # a plan with a coin past t is refused when it is built, so no
    # simulation ever runs it
    assert refused_plan(3, (Weighing({0, 1}, {2, 3}),)) == "weighing 0: coins [3] outside 0..2"


def test_transcript_length_must_match_plan():
    plan = WeighingPlan(4, (Weighing({0}, {1}),))
    with pytest.raises(ValidationError, match="^2 outcomes for 1 weighings$"):
        Transcript(plan, (Outcome.BALANCED, Outcome.BALANCED))
    # read from JSON, the transcript refuses it in the same words
    data = {"t": 4, "weighings": [{"left": [0], "right": [1]}], "outcomes": ["balanced"] * 2}
    with pytest.raises(ValidationError, match="^2 outcomes for 1 weighings$"):
        transcript_from_json(data)


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
    # "4" once failed with a bare TypeError, and True was taken as t = 1;
    # such a plan is refused when it is built, before itinerary_of sees it
    assert refused_plan(t, (Weighing({0}, {1}),)).startswith("coin count must be an integer")


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
    "t,weighings,message",
    [
        (0, (), "coin count must be positive, got t=0"),
        (4, (Weighing({0, 1}, {1, 2}),), "weighing 0: pans overlap on coins [1]"),
        (
            4,
            (Weighing({0}, {1}), Weighing({0, 1}, {2})),
            "weighing 1: unequal pans: 2 vs 1 coins",
        ),
        (4, (Weighing(set(), set()),), "weighing 0: empty pan"),
        (
            4,
            (Weighing({0, 5}, {1, -2}),),
            "weighing 0: coins [-2, 5] outside 0..3",
        ),
        (4, (Weighing({"a"}, {1}),), "weighing 0: invalid coin indices [\"'a'\"]"),
    ],
    ids=["no-coins", "overlap", "unequal", "empty", "out-of-range", "not-an-int"],
)
def test_partition_reports_an_invalid_plan_unchanged(t, weighings, message):
    # the partition never sees such a plan: building it raises
    assert refused_plan(t, weighings) == message


def test_validate_plan_reports():
    good = build_official(ProblemInstance(80, 3, 2)).plan
    assert validate_plan(good) == []

    # a bad plan cannot be built, so its problems are read off the refusal
    assert "overlap" in refused_plan(4, (Weighing({0, 1}, {1, 2}),))
    assert "unequal" in refused_plan(6, (Weighing({0, 1, 2}, {3, 4}),))
    assert "outside" in refused_plan(3, (Weighing({0}, {5}),))

    # True once passed as coin 1, and could reach a report as true
    with_bool = (Weighing({True, 2}, {0, 3}),)
    assert refused_plan(4, with_bool) == "weighing 0: invalid coin indices ['True']"

    # every message of a weighing, in order; a bool is invalid, never also
    # outside 0..t-1
    mixed = Weighing({0, True, 3}, {0, "a"})
    expected = [
        "pans overlap on coins [0]",
        "unequal pans: 3 vs 2 coins",
        "invalid coin indices [\"'a'\", 'True']",
    ]
    assert refused_plan(4, (mixed,)) == "; ".join(f"weighing 0: {p}" for p in expected)
    assert refused_plan(1, (mixed,)) == "; ".join(
        f"weighing 0: {p}" for p in expected + ["coins [3] outside 0..0"]
    )

    # a coin count that is not an int is the plan's only problem
    pair = (Weighing({0}, {1}),)
    for t, shown in (("4", '"4"'), (4.0, "4.0"), (True, "true"), (None, "null")):
        assert refused_plan(t, pair) == f"coin count must be an integer, got {shown}"


FOUR_COINS = WeighingPlan(4, (Weighing({0}, {1}),))

# every entry point that reads a coin set, given a set that holds `c`
COIN_READERS = {
    "pan": lambda c: WeighingPlan(4, (Weighing({c}, {3}),)),
    "simulate_transcript": lambda c: simulate_transcript(FOUR_COINS, {c, 2}),
    "verify_proof": lambda c: verify_proof(
        ProblemInstance(4, 2, 1), Transcript(FOUR_COINS, (Outcome.BALANCED,)), {c, 2}
    ),
    "Pile": lambda c: Pile({c, 2}),
}


# (reader, coin, the exact refusal)
COIN_RULE = [
    ("pan", 0.0, "weighing 0: invalid coin indices ['0.0']"),
    ("pan", True, "weighing 0: invalid coin indices ['True']"),
    ("pan", "0", "weighing 0: invalid coin indices [\"'0'\"]"),
    ("pan", -1, "weighing 0: coins [-1] outside 0..3"),
    ("pan", 4, "weighing 0: coins [4] outside 0..3"),
    ("simulate_transcript", 0.0, "placement coin must be an integer, got 0.0"),
    ("simulate_transcript", True, "placement coin must be an integer, got True"),
    ("simulate_transcript", "0", "placement coin must be an integer, got '0'"),
    ("simulate_transcript", -1, "placement coins [-1] outside 0..3"),
    ("simulate_transcript", 4, "placement coins [4] outside 0..3"),
    ("verify_proof", 0.0, "placement coin must be an integer, got 0.0"),
    ("verify_proof", True, "placement coin must be an integer, got True"),
    ("verify_proof", "0", "placement coin must be an integer, got '0'"),
    ("verify_proof", -1, "placement coins [-1] outside 0..3"),
    ("verify_proof", 4, "placement coins [4] outside 0..3"),
    # no t: a coin must only be nonnegative
    ("Pile", 0.0, "pile coin must be an integer, got 0.0"),
    ("Pile", True, "pile coin must be an integer, got True"),
    ("Pile", "0", "pile coin must be an integer, got '0'"),
    ("Pile", -1, "pile coins [-1] are negative"),
]


@pytest.mark.parametrize(
    "reader, coin, message", COIN_RULE, ids=[f"{r}-{c!r}" for r, c, _ in COIN_RULE]
)
def test_every_coin_set_follows_one_rule(reader, coin, message):
    # a coin index is an int (not a bool, float or str) in 0..t-1, or >= 0
    # where there is no t, and a bad coin is named exactly once
    with pytest.raises(ValidationError) as caught:
        COIN_READERS[reader](coin)
    assert str(caught.value) == message


# every entry point that reads a coin set, given the caller's listing as it is
LISTING_READERS = {
    "pan": lambda listing: WeighingPlan(4, (Weighing(listing, {3}),)),
    "simulate_transcript": lambda listing: simulate_transcript(FOUR_COINS, listing),
    "verify_proof": lambda listing: verify_proof(
        ProblemInstance(4, 2, 1), Transcript(FOUR_COINS, (Outcome.BALANCED,)), listing
    ),
    "Pile": Pile,
}

# (reader, listing, the exact refusal)
COIN_LISTING = [
    ("pan", [0, 0], "left pan lists coins [0] more than once"),
    ("pan", 5, "left pan must be a collection of coin indices, got 5"),
    ("pan", [[0]], "left pan must be a collection of coin indices, got [[0]]"),
    # repeats of an int and a str are named without comparing them
    ("pan", ["a", 0, "a", 0], "left pan lists coins [0, 'a'] more than once"),
    ("simulate_transcript", [2, 2], "placement lists coins [2] more than once"),
    ("simulate_transcript", 5, "placement must be a collection of coin indices, got 5"),
    ("verify_proof", [0, 0, 1], "placement lists coins [0] more than once"),
    ("verify_proof", 5, "placement must be a collection of coin indices, got 5"),
    ("Pile", [0, 0], "pile lists coins [0] more than once"),
    ("Pile", 5, "pile must be a collection of coin indices, got 5"),
    ("Pile", [[0]], "pile must be a collection of coin indices, got [[0]]"),
]


@pytest.mark.parametrize(
    "reader, listing, message", COIN_LISTING, ids=[f"{r}-{c!r}" for r, c, _ in COIN_LISTING]
)
def test_a_listing_becomes_a_coin_set_only_if_it_lists_each_coin_once(reader, listing, message):
    # a set would silently drop the repeat, and a listing that is not a
    # collection of hashable values would fail with a bare TypeError
    with pytest.raises(ValidationError) as caught:
        LISTING_READERS[reader](listing)
    assert str(caught.value) == message


def test_a_coin_that_is_not_an_int_is_named_before_a_repeat():
    with pytest.raises(ValidationError, match=r"^pile coin must be an integer, got 0.0$"):
        Pile([0.0, 0.0, 1])
    with pytest.raises(ValidationError, match=r"^placement coins \[7\] outside 0..3$"):
        simulate_transcript(FOUR_COINS, [7, 7])
    # a frozenset is taken as it is, and a generator is read once
    coins = frozenset({1, 2})
    assert Pile(coins).coins is coins
    assert Pile(c for c in (1, 2)).coins == coins


def test_a_coin_is_named_in_one_problem_of_a_weighing():
    # -2 is an int, so it is only outside 0..t-1
    weighing = Weighing({0, 5}, {1, -2})
    assert refused_plan(6, (weighing,)) == "weighing 0: coins [-2] outside 0..5"
    assert refused_plan(4, (weighing,)) == "weighing 0: coins [-2, 5] outside 0..3"


def test_a_plan_is_checked_when_it_is_built_and_never_again(monkeypatch):
    calls = []
    original = model.validate_plan

    def counted(plan):
        calls.append(plan)
        return original(plan)

    monkeypatch.setattr(model, "validate_plan", counted)
    plan = WeighingPlan(4, (Weighing({0}, {3}),))
    assert calls == [plan]

    # `dataclasses.replace` builds a new plan, so it checks that one too
    calls.clear()
    moved = dataclasses.replace(plan, t=5)
    assert calls == [moved] and moved.weighings == plan.weighings
    with pytest.raises(ValidationError, match=r"^weighing 0: coins \[3\] outside 0..2$"):
        dataclasses.replace(plan, t=3)
    with pytest.raises(ValidationError, match=r"^weighing 0: pans overlap on coins \[0\]$"):
        dataclasses.replace(plan, weighings=[Weighing({0}, {0})])

    # a copy or an unpickled plan is the same plan
    for copied in (copy.copy(plan), copy.deepcopy(plan), pickle.loads(pickle.dumps(plan))):
        assert copied == plan and hash(copied) == hash(plan)
        assert repr(copied) == repr(plan)

    # nothing that reads a built plan checks it again: the simulation, the
    # partition, itinerary_of and the judge's four entry points
    instance = ProblemInstance(4, 1, 0)
    calls.clear()
    transcript = simulate_transcript(plan, {3})
    assert partition_by_itinerary(plan) == {"L": {0}, "O": {1, 2}, "R": {3}}
    assert itinerary_of(plan, 3) == "R"
    assert verify_proof(instance, transcript, {3}).valid
    assert classify_privacy(instance, transcript).discreet is False
    assert count_consistent(1, transcript) == 1
    assert uniform_best_guess(1, transcript) == (3, 1)
    assert calls == []


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
