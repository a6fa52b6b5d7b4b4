import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction
from math import comb, prod

import pytest

from discreet_weighings import (
    BUILDERS,
    InvalidProofError,
    Outcome,
    ProblemInstance,
    Transcript,
    ValidationError,
    Weighing,
    WeighingPlan,
    build_equal_piles,
    build_leftover_reveal,
    build_official,
    build_reference_pile,
    build_triple_case,
    classify_privacy,
    count_consistent,
    simulate_transcript,
    uniform_best_guess,
    verify_proof,
)
from discreet_weighings import judge, model
from helpers import (
    brute_best_guess,
    brute_consistent,
    brute_count_vectors,
    brute_pair_count,
    dense_count_vectors,
    many_class_plan,
    prefix_routing,
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
    assert count_consistent(2, BALANCED_PAIR) == len(expected)
    assert count_consistent(1, BALANCED_PAIR) == 0


def test_consistent_assignment_edge_sizes():
    assert count_consistent(0, BALANCED_PAIR) == 1  # the empty set
    unbalanced = Transcript(BALANCED_PAIR.plan, (Outcome.LEFT_LIGHTER,))
    assert count_consistent(0, unbalanced) == 0
    empty_plan = Transcript(WeighingPlan(4, ()), ())
    assert count_consistent(2, empty_plan) == comb(4, 2)
    with pytest.raises(ValueError):
        count_consistent(5, BALANCED_PAIR)


def test_counting_path_matches_brute_force_on_random_plans():
    rng = random.Random(20)
    for _ in range(40):
        t = rng.randint(4, 10)
        plan = random_plan(rng, t, rng.randint(1, 3))
        fakes = random_fakes(rng, t, rng.randint(1, 3))
        transcript = simulate_transcript(plan, fakes)
        for s in range(0, 4):
            expected = brute_consistent(t, s, transcript)
            assert count_consistent(s, transcript) == len(expected)


def test_count_vectors_match_the_enumerator_on_random_classes():
    # every sign vector and every size 0..t+1; the cost of the enumerator
    # oracle grows with compositions * sign vectors, which caps each draw
    rng = random.Random(31)
    structures = 0
    while structures < 100:
        w = rng.randint(0, 4)
        k = rng.randint(0, min(9, 3**w))
        sizes = [rng.randint(1, 3) for _ in range(k)]
        if prod(n + 1 for n in sizes) * 3**w > 30000:
            continue
        structures += 1
        symbols = rng.sample(["".join(s) for s in itertools.product("LRO", repeat=w)], k)
        t = sum(sizes)
        for codes in itertools.product((0, 1, -1), repeat=w):
            for s in range(t + 2):
                expected = brute_count_vectors(symbols, sizes, codes, s)
                assert dense_count_vectors(symbols, sizes, codes, s) == expected


def test_routing_equals_the_prefix_string_oracle():
    # the fold of `model._route` against the prefix-string rule, on random
    # plans, every builtin that builds at 80-3-2 (equal-piles needs a | f,
    # so it comes at 80-2-1 and 80-4-3) and the triple-case plans at
    # 121-4-3, 161-5-4 and 200-6-5, with the classes in itinerary order
    # and shuffled
    rng = random.Random(26)
    plans = [random_plan(rng, t, rng.randint(1, 6)) for t in (rng.randint(2, 40) for _ in range(200))]
    plans += [build(ProblemInstance(80, 3, 2)).plan for name, build in BUILDERS.items() if name != "equal-piles"]
    plans += [build_equal_piles(ProblemInstance(80, f, f - 1), f).plan for f in (2, 4)]
    plans += [build_triple_case(ProblemInstance(t, f, f - 1)).plan for t, f in ((121, 4), (161, 5), (200, 6))]
    for plan in plans:
        classes = list(model.partition_by_itinerary(plan).items())
        for _ in range(2):
            symbols = [itin for itin, _ in classes]
            sizes = [len(coins) for _, coins in classes]
            assert judge._routing(symbols, sizes) == prefix_routing(symbols, sizes), plan
            rng.shuffle(classes)


@pytest.mark.parametrize("t,f", [(251, 7), (301, 8), (401, 10)])
def test_triple_case_counts_at_scale(t, f):
    # closed form: one fake in every A pile, every B pile or every C pile
    k, r = divmod(t, f)
    a_sizes = [k - 2] * r + [k - 3] * (f - r)
    b_sizes = [1] * r + [2] * (f - r)
    c_sizes = [2] * r + [1] * (f - r)
    instance = ProblemInstance(t, f, f - 1)
    bundle = build_triple_case(instance)
    transcript = bundle.transcript()
    verdict = verify_proof(instance, transcript, bundle.placement)
    assert verdict.consistent_count_f == prod(a_sizes) + prod(b_sizes) + prod(c_sizes)
    assert verdict.consistent_count_d == 0
    assert verdict.valid and classify_privacy(instance, transcript).discreet


def test_counting_plans_with_more_classes_than_the_recursion_limit():
    # nearly every coin in a class of its own: far more classes than Python
    # may recurse
    plan = many_class_plan()
    assert len(model.partition_by_itinerary(plan)) > 1000
    simulated = [simulate_transcript(plan, fakes) for fakes in ({0, 1}, {10, 1400})]
    # all balanced: no weighing rules out a class on its own, so pairs of
    # conjugate prefix classes stay candidates until the last weighings
    balanced = Transcript(plan, (Outcome.BALANCED,) * len(plan.weighings))
    for transcript in simulated + [balanced]:
        assert count_consistent(2, transcript) == brute_pair_count(transcript)
        singles = brute_consistent(1500, 1, transcript)
        assert count_consistent(1, transcript) == len(singles)


OFFICIAL_80 = ProblemInstance(80, 3, 2)


@pytest.mark.parametrize(
    "call,what",
    [
        (lambda tr: count_consistent(3.0, tr), "hypothesis size"),
        (lambda tr: count_consistent(True, tr), "hypothesis size"),
        (lambda tr: uniform_best_guess(3.0, tr), "hypothesis size"),
        (lambda tr: verify_proof(OFFICIAL_80, tr, {0.0, 20, 79}), "placement coin"),
        (lambda tr: verify_proof(OFFICIAL_80, tr, {True, 20, 79}), "placement coin"),
        (lambda tr: verify_proof(OFFICIAL_80, tr, {"0", 20, 79}), "placement coin"),
        (lambda tr: simulate_transcript(tr.plan, {0.0, 20, 79}), "placement coin"),
        (lambda tr: simulate_transcript(tr.plan, {True, 20, 79}), "placement coin"),
        (lambda tr: simulate_transcript(tr.plan, {"0", 20, 79}), "placement coin"),
    ],
    ids=[
        "count-size", "count-bool-size", "guess-size",
        "verify-float-coin", "verify-bool-coin", "verify-str-coin",
        "simulate-float-fake", "simulate-bool-fake", "simulate-str-fake",
    ],
)
def test_judge_refuses_non_integer_counts(call, what):
    # True would otherwise count the size-1 sets, and 3.0 fail deep inside;
    # coin 0.0 and True would stand for coins 0 and 1, and "0" fail with a
    # TypeError
    transcript = build_official(OFFICIAL_80).transcript()
    with pytest.raises(ValidationError, match=f"^{what} must be an integer"):
        call(transcript)


@pytest.mark.parametrize(
    "call, t",
    [
        (lambda tr: classify_privacy(ProblemInstance(81, 3, 2), tr), 81),
        # coin 79 is outside 0..78, but the wrong t is named first
        (lambda tr: verify_proof(ProblemInstance(79, 3, 2), tr, {0, 40, 79}), 79),
        # and before the placement's size, 2 coins for f = 3
        (lambda tr: verify_proof(ProblemInstance(81, 3, 2), tr, {0, 40}), 81),
    ],
    ids=["privacy", "verify-stray-coin", "verify-size"],
)
def test_a_wrong_t_is_named_before_anything_else(call, t):
    transcript = build_official(OFFICIAL_80).transcript()
    with pytest.raises(ValueError, match=rf"^t={t} does not match the plan's t=80$"):
        call(transcript)
    assert transcript._judged == {}


def test_the_judges_memo_is_no_field_of_a_transcript():
    # what the judge works out of a transcript is not part of its value
    bundle = build_official(OFFICIAL_80)
    transcript = bundle.transcript()
    assert [f.name for f in dataclasses.fields(transcript)] == ["plan", "outcomes"]
    as_dict, as_tuple = dataclasses.asdict(transcript), dataclasses.astuple(transcript)
    assert verify_proof(OFFICIAL_80, transcript, bundle.placement).valid
    assert set(transcript._judged) == {"request", 3, 2}
    assert dataclasses.asdict(transcript) == as_dict
    assert dataclasses.astuple(transcript) == as_tuple
    assert "_judged" not in repr(transcript)
    for copied in (copy.copy(transcript), copy.deepcopy(transcript), pickle.loads(pickle.dumps(transcript))):
        assert copied == transcript and hash(copied) == hash(transcript)
        assert copied._judged == {}


def test_judging_one_transcript_validates_its_plan_once(monkeypatch):
    calls = []
    original = model.validate_plan

    def counted(plan):
        calls.append(plan)
        return original(plan)

    monkeypatch.setattr(model, "validate_plan", counted)
    instance = ProblemInstance(80, 3, 2)
    bundle = build_official(instance)
    transcript = bundle.transcript()
    # once, when the builder makes the plan; judging it checks nothing again
    assert calls == [transcript.plan]
    assert verify_proof(instance, transcript, bundle.placement).valid
    assert classify_privacy(instance, transcript).discreet
    assert uniform_best_guess(3, transcript) == (0, Fraction(1, 20))
    assert calls == [transcript.plan]


def test_a_transcript_is_routed_once(monkeypatch):
    # every judge call on one transcript object reads the classes, routing
    # and tallies the first one worked out; an equal new object starts over
    routes, partitions = [], []

    def counted(calls, original):
        def call(*args):
            calls.append(args)
            return original(*args)

        return call

    monkeypatch.setattr(judge, "_route", counted(routes, judge._route))
    monkeypatch.setattr(
        judge, "partition_by_itinerary", counted(partitions, judge.partition_by_itinerary)
    )
    instance = ProblemInstance(80, 3, 2)
    bundle = build_official(instance)
    transcript = bundle.transcript()
    assert verify_proof(instance, transcript, bundle.placement).valid
    assert len(routes) == len(transcript.plan.weighings) == 3
    assert len(partitions) == 1
    routes.clear()
    partitions.clear()
    assert classify_privacy(instance, transcript).discreet
    assert verify_proof(instance, transcript, bundle.placement).valid
    assert count_consistent(3, transcript) == 8000
    assert uniform_best_guess(3, transcript) == (0, Fraction(1, 20))
    assert count_consistent(1, transcript) == len(brute_consistent(80, 1, transcript))
    assert routes == [] and partitions == []
    # the checks still run: True and 3.0 would find the tallies of 1 and 3
    for s, error in ((True, ValidationError), (3.0, ValidationError), (81, ValueError)):
        with pytest.raises(error):
            count_consistent(s, transcript)

    for fresh in (
        Transcript(transcript.plan, transcript.outcomes),
        copy.copy(transcript),
        pickle.loads(pickle.dumps(transcript)),
    ):
        assert fresh == transcript and hash(fresh) == hash(transcript)
        assert repr(fresh) == repr(transcript)
        routes.clear()
        partitions.clear()
        assert verify_proof(instance, fresh, bundle.placement).valid
        assert len(routes) == 3 and len(partitions) == 1


def test_plan_problems_come_before_stray_placement_coins(monkeypatch):
    # and before an out-of-range hypothesis size and an invalid proof: the
    # plan is refused when it is built, so no judge request can reach it
    with pytest.raises(ValidationError, match=r"^weighing 0: pans overlap on coins \[1\]$"):
        WeighingPlan(4, (Weighing({0, 1}, {1, 2}),))
    # on a built plan, verify_proof checks the whole placement before it
    # counts a set
    counted = []
    monkeypatch.setattr(judge, "count_consistent", lambda *args: counted.append(args))
    instance = ProblemInstance(4, 2, 1)
    requests = [
        ({0, 1, 2}, ValueError, "^placement has 3 coins but the instance has f=2$"),
        ({0, 7}, ValidationError, r"^placement coins \[7\] outside 0..3$"),
        ({0.0, 3}, ValidationError, "^placement coin must be an integer, got 0.0$"),
        ({True, "3"}, ValidationError, "^placement coin must be an integer, got '3', True$"),
    ]
    for placement, error, message in requests:
        with pytest.raises(error, match=message):
            verify_proof(instance, BALANCED_PAIR, placement)
    assert counted == []


def test_official_strategy_counts():
    bundle = build_official(ProblemInstance(80, 3, 2))
    transcript = bundle.transcript()
    assert count_consistent(3, transcript) == 8000
    assert count_consistent(2, transcript) == 0


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
                count = count_consistent(s, prefix)
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
        count = count_consistent(f, transcript)
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


def _answer(call, transcript):
    """What `call` returns on the transcript, or the type and message of
    what it raises."""
    try:
        return call(transcript)
    except (ValueError, InvalidProofError) as exc:
        return type(exc), str(exc)


def test_single_pass_matches_brute_force_on_random_plans():
    rng = random.Random(2024)
    order_rng = random.Random(2025)  # leaves the transcripts drawn from rng as they were
    valid_seen = 0
    for t, f, placement, transcript in _random_transcripts(rng, 400):
        survivors = brute_consistent(t, f, transcript)
        # an extra weighing with overlapping pans makes the plan invalid,
        # and it is refused when it is built, before any judge call
        with pytest.raises(ValidationError) as refused:
            WeighingPlan(t, transcript.plan.weighings + (Weighing({0}, {0}),))
        assert str(refused.value).startswith(f"weighing {len(transcript.outcomes)}: pans overlap")
        for d in {0, t, rng.randint(0, t)} - {f}:
            instance = ProblemInstance(t, f, d)
            # the four entry points in random order on one transcript object
            # (sizes 0..t+1, so some raise) answer as on a fresh object each
            s = order_rng.randint(0, t + 1)
            calls = {
                "verify": lambda tr: verify_proof(instance, tr, placement),
                "privacy": lambda tr: classify_privacy(instance, tr),
                "count": lambda tr: count_consistent(s, tr),
                "guess": lambda tr: uniform_best_guess(s, tr),
            }
            for name in order_rng.sample(sorted(calls), len(calls)):
                fresh = Transcript(transcript.plan, transcript.outcomes)
                assert _answer(calls[name], transcript) == _answer(calls[name], fresh), name
            count_d = len(brute_consistent(t, d, transcript))
            verdict = verify_proof(instance, transcript, placement)
            assert verdict.consistent_count_f == len(survivors)
            assert verdict.consistent_count_d == count_d
            valid = placement in survivors and count_d == 0
            assert verdict.valid == valid
            if not valid:
                continue
            valid_seen += 1
            somewhere = frozenset().union(*survivors)
            everywhere = frozenset(range(t)).intersection(*survivors)
            privacy = classify_privacy(instance, transcript)
            assert privacy.revealed_real == frozenset(range(t)) - somewhere
            assert privacy.revealed_fake == everywhere
            assert uniform_best_guess(f, transcript) == brute_best_guess(survivors)
    assert valid_seen >= 100


def test_uniform_guess_matches_brute_force_on_random_plans():
    rng = random.Random(77)
    for t, _f, _placement, transcript in _random_transcripts(rng, 300):
        for s in range(t + 1):
            survivors = brute_consistent(t, s, transcript)
            if s and survivors:
                assert uniform_best_guess(s, transcript) == brute_best_guess(survivors)
            else:
                with pytest.raises(ValueError):
                    uniform_best_guess(s, transcript)



def _negated(transcript):
    """The transcript with every outcome negated."""
    return Transcript(transcript.plan, tuple(Outcome.from_sign(-o.sign) for o in transcript.outcomes))


def _assert_complement_duality(transcript):
    # a set is consistent with T exactly when its complement is with T
    # negated, since both pans of every weighing hold as many coins.  So
    # the coins in no size-s set on T are those in every size-(t - s) set
    # on the negation, and the other way round
    t = transcript.plan.t
    dual = _negated(transcript)
    for s in range(t + 1):
        assert count_consistent(s, transcript) == count_consistent(t - s, dual), s
        if count_consistent(s, transcript):
            tally, dual_tally = judge._tally(transcript, s), judge._tally(dual, t - s)
            assert tally.privacy().revealed_real == dual_tally.privacy().revealed_fake, s
            assert tally.privacy().revealed_fake == dual_tally.privacy().revealed_real, s


def test_complement_duality_on_random_plans():
    rng = random.Random(21)
    for trial in range(150):
        t = rng.randint(2, 12)
        plan = random_plan(rng, t, rng.randint(1, 4))
        if trial % 2:
            transcript = simulate_transcript(plan, random_fakes(rng, t, rng.randint(0, t)))
        else:  # any outcomes at all, even ones no fake set shows
            transcript = Transcript(plan, tuple(rng.choice(list(Outcome)) for _ in plan.weighings))
        _assert_complement_duality(transcript)


@pytest.mark.parametrize(
    # equal-piles needs its pile count to divide both 80 and 3
    "build", [build_official, build_triple_case, build_leftover_reveal, build_reference_pile],
    ids=["official", "triple-case", "leftover-reveal", "reference-pile"],
)
def test_complement_duality_on_the_builtin_transcripts(build):
    _assert_complement_duality(build(ProblemInstance(80, 3, 2)).transcript())
