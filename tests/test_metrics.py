import random
from fractions import Fraction
from math import comb

import pytest

from discreet_weighings import (
    BUILDERS,
    CaseStructure,
    Pile,
    Outcome,
    ProblemInstance,
    Transcript,
    ValidationError,
    Weighing,
    WeighingPlan,
    build_official,
    build_triple_case,
    case_marginals,
    equal_piles_factor,
    equal_piles_factor_limit,
    minimax_distribution,
    revealing_metrics,
    uniform_best_guess,
)
from discreet_weighings.metrics import approx3
from helpers import (
    brute_best_guess,
    brute_consistent,
    coin_rows,
    fraction_simplex_minimax,
    random_case_structure,
    vertex_minimax,
)

# triple-case instances from the paper's 80-3-2 up to ten fakes
TRIPLE_CASES = ((80, 3), (121, 4), (161, 5), (200, 6), (251, 7), (301, 8), (350, 9), (401, 10))


def test_revealing_metrics_reference_values():
    m = revealing_metrics(80, 2, 1600)
    assert m.old_possibilities == 3160
    assert m.factor_x == Fraction(3160, 1600)
    assert approx3(m.factor_x) == 1.975
    assert m.coefficient_r == Fraction(1560, 3160)
    assert approx3(m.coefficient_r) == 0.494

    m = revealing_metrics(80, 3, 8000)
    assert m.factor_x == Fraction(82160, 8000)
    assert approx3(m.factor_x) == 10.27
    assert approx3(m.coefficient_r) == 0.903

    m = revealing_metrics(80, 4, 608400)
    assert float(round(m.factor_x, 2)) == 2.6
    assert approx3(m.coefficient_r) == 0.615


def test_revealing_metrics_rejects_bad_counts():
    with pytest.raises(ValueError):
        revealing_metrics(80, 3, 0)
    with pytest.raises(ValueError):
        revealing_metrics(80, 3, comb(80, 3) + 1)
    with pytest.raises(ValueError, match="^no size-10 fake sets exist for t=5$"):
        revealing_metrics(5, 10, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: revealing_metrics(80.0, 3, 100),
        lambda: revealing_metrics(80, True, 100),
        lambda: revealing_metrics(80, 3, 100.0),
        lambda: equal_piles_factor(80.0, 2, 2),
        lambda: equal_piles_factor(80, 2, "2"),
        lambda: equal_piles_factor_limit(4.0, 2),
    ],
    ids=["revealing-t", "revealing-f", "revealing-new", "factor-t", "factor-a", "limit-f"],
)
def test_metrics_refuse_non_integer_counts(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: revealing_metrics(-80, 3, 1), "need t >= 0, got t=-80"),
        (lambda: revealing_metrics(80, -3, 1), "need f >= 0, got f=-3"),
        (lambda: equal_piles_factor(-80, 4, 2), "need t >= 0, got t=-80"),
        (lambda: equal_piles_factor(80, -4, 2), "need f >= 0, got f=-4"),
        (lambda: equal_piles_factor_limit(-4, 2), "need f >= 0, got f=-4"),
    ],
    ids=["revealing-t", "revealing-f", "factor-t", "factor-f", "limit-f"],
)
def test_metrics_refuse_a_negative_count_by_its_name(call, message):
    # comb and factorial would refuse it as n, k or factorial()'s argument
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_metrics_of_no_fakes():
    assert revealing_metrics(80, 0, 1).factor_x == 1
    assert equal_piles_factor(80, 0, 2) == 1
    assert equal_piles_factor_limit(0, 2) == 1.0


def test_revealing_metrics_json_shape():
    data = revealing_metrics(80, 3, 8000).to_json()
    assert data["old"] == 82160 and data["new"] == 8000
    assert data["X"] == {"num": 1027, "den": 100, "approx": 10.27}
    assert set(data["R"]) == {"num", "den", "approx"}


def test_display_rounding_is_half_even():
    assert approx3(Fraction(45, 10000)) == 0.004
    assert approx3(Fraction(55, 10000)) == 0.006
    assert approx3(Fraction(65, 10000)) == 0.006


def test_equal_piles_factor_values():
    assert equal_piles_factor(80, 4, 4) == Fraction(1581580, 160000)
    assert approx3(equal_piles_factor(80, 4, 4)) == 9.885
    assert equal_piles_factor(80, 4, 2) == Fraction(1581580, 608400)
    assert equal_piles_factor(80, 2, 2) == Fraction(3160, 1600)
    with pytest.raises(ValueError):
        equal_piles_factor(80, 4, 3)
    with pytest.raises(ValueError):
        equal_piles_factor(80, 4, 1)


def test_equal_piles_factor_limit_values():
    # direct substitution into the limit expression, worked by hand:
    # f=2, a=2: (4/2) * (1/1)^2 = 2
    # f=4, a=4: 256/24 = 32/3; f=4, a=2: (256/24) * (2/4)^2 = 8/3
    assert equal_piles_factor_limit(2, 2) == 2.0
    assert equal_piles_factor_limit(4, 4) == float(Fraction(32, 3))
    assert equal_piles_factor_limit(4, 2) == float(Fraction(8, 3))
    with pytest.raises(ValueError):
        equal_piles_factor_limit(4, 3)
    with pytest.raises(ValueError, match="^need a > 1, got a=1$"):
        equal_piles_factor_limit(4, 1)


def test_factor_at_scale_approaches_its_limit_from_below():
    for f, a in ((2, 2), (4, 2), (4, 4)):
        at_80 = equal_piles_factor(80, f, a)
        at_400 = equal_piles_factor(400, f, a)
        limit = equal_piles_factor_limit(f, a)
        assert float(at_80) < float(at_400) < limit


def test_pile_and_case_structure_validation():
    with pytest.raises(ValueError):
        Pile(frozenset())
    with pytest.raises(ValueError):
        Pile(frozenset({1, 2}), 3)
    for fakes in (True, 1.0, Fraction(1), "1"):  # the integer minimax needs int fakes
        with pytest.raises(ValidationError):
            Pile(frozenset({0, 1}), fakes)
    # a coin is an index: True, 1.0 and "x" would be keys of the marginals
    # and print in the JSON, and a negative index names no coin
    for coins in ({True, 2, "x"}, {0.5, 3, 4}, {1.0, 2}, {False}, {-1, 2}):
        with pytest.raises(ValidationError):
            Pile(coins)
    with pytest.raises(ValidationError):
        CaseStructure(((Pile({0, 1}),), (Pile({1.0, 2}),)))
    with pytest.raises(ValueError):
        CaseStructure(())
    for cases in (((),), ((), ())):  # no case puts a coin at risk
        with pytest.raises(ValueError, match="at least one fake"):
            CaseStructure(cases)
    with pytest.raises(ValueError):  # overlapping piles within one case
        CaseStructure(((Pile(frozenset({0, 1})), Pile(frozenset({1, 2}))),))
    with pytest.raises(ValueError):  # cases disagree on the fake total
        CaseStructure(
            (
                (Pile(frozenset({0}), 1),),
                (Pile(frozenset({1, 2}), 2), Pile(frozenset({3}), 1)),
            )
        )


def test_best_single_guess_uniform_and_ties():
    # the oracle the judge's uniform guess is checked against
    family = [frozenset({0, 2}), frozenset({0, 3}), frozenset({1, 3})]
    assert brute_best_guess(family) == (0, Fraction(2, 3))
    assert brute_best_guess([frozenset({4}), frozenset({2})]) == (2, Fraction(1, 2))
    with pytest.raises(ValueError):
        brute_best_guess([])

    # {0, 1} v {2, 3} balanced: every coin is fake in 2 of the 4 surviving
    # pairs, so the tie goes to coin 0; no single fake can balance it
    balanced = Transcript(WeighingPlan(4, (Weighing({0, 1}, {2, 3}),)), (Outcome.BALANCED,))
    assert uniform_best_guess(2, balanced) == (0, Fraction(1, 2))
    assert brute_best_guess(brute_consistent(4, 2, balanced)) == (0, Fraction(1, 2))
    with pytest.raises(ValueError):
        uniform_best_guess(1, balanced)


def test_case_marginals_triple_case():
    cases = build_triple_case(ProblemInstance(80, 3, 2)).cases
    third = [Fraction(1, 3)] * 3
    marginals = case_marginals(cases, third)
    # a coin in the single-coin pile B1 (index 71) is fake in the whole of
    # case B, i.e. with probability 1/3
    assert marginals[71] == Fraction(1, 3)
    assert sum(marginals.values()) == 3

    optimum = [Fraction(23, 25), Fraction(1, 25), Fraction(1, 25)]
    marginals = case_marginals(cases, optimum)
    assert max(marginals.values()) == Fraction(1, 25)
    assert sum(marginals.values()) == 3


def test_case_marginals_lists_coins_in_the_order_the_piles_do():
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randint(1, 6)
        structure = random_case_structure(rng, rng.randint(1, 20), k)
        weights = [rng.randint(0, 5) for _ in range(k)]
        weights[rng.randrange(k)] += 1
        probs = [Fraction(w, sum(weights)) for w in weights]
        rows = coin_rows(structure)
        marginals = case_marginals(structure, probs)
        assert list(marginals) == list(rows)
        assert marginals == {coin: sum(p * x for p, x in zip(probs, row)) for coin, row in rows.items()}


def test_case_marginals_validation():
    cases = CaseStructure(((Pile(frozenset({0})),),))
    assert case_marginals(cases, [1]) == {0: Fraction(1)}
    with pytest.raises(ValueError):
        case_marginals(cases, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        case_marginals(cases, [Fraction(1, 2)])
    # strings, floats and bools were coerced by Fraction(): the first two
    # pairs were accepted, [True, False] read as (1, 0), and [0.1, 0.9]
    # refused as not summing to 1
    two = CaseStructure(((Pile(frozenset({0})),), (Pile(frozenset({1})),)))
    for probs, shown in ((["1/2", "1/2"], "'1/2'"), ([0.5, 0.5], "0.5"), ([True, False], "True"), ([0.1, 0.9], "0.1")):
        with pytest.raises(ValidationError, match=f"case probability {shown} is not an int or a Fraction"):
            case_marginals(two, probs)
    assert case_marginals(two, [Fraction(1, 2), Fraction(1, 2)]) == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_minimax_triple_case():
    cases = build_triple_case(ProblemInstance(80, 3, 2)).cases
    distribution, value = minimax_distribution(cases)
    assert distribution == (Fraction(23, 25), Fraction(1, 25), Fraction(1, 25))
    assert value == Fraction(1, 25)
    assert max(case_marginals(cases, distribution).values()) == value


def test_minimax_official():
    cases = build_official(ProblemInstance(80, 3, 2)).cases
    distribution, value = minimax_distribution(cases)
    assert value == Fraction(1, 20)
    assert distribution == (Fraction(1, 2), Fraction(1, 2))


def test_minimax_single_case_of_equal_piles():
    piles = tuple(Pile(frozenset(range(5 * i, 5 * (i + 1)))) for i in range(2))
    distribution, value = minimax_distribution(CaseStructure((piles,)))
    assert distribution == (Fraction(1),)
    assert value == Fraction(2, 10)  # f/t for f=2, t=10


def test_minimax_solves_more_than_six_cases():
    cases = CaseStructure(tuple((Pile(frozenset({i})),) for i in range(9)))
    assert minimax_distribution(cases) == ((Fraction(1, 9),) * 9, Fraction(1, 9))


def test_minimax_picks_the_same_optimum_when_several_exist():
    # two identical cases: every mix is optimal, and Bland's rule enters the
    # first case's column first
    case = (Pile(frozenset({0, 1})),)
    structure = CaseStructure((case, case))
    assert minimax_distribution(structure) == ((Fraction(1), Fraction(0)), Fraction(1, 2))


def test_minimax_agrees_with_vertex_enumeration_on_random_structures():
    rng = random.Random(2015)
    for _ in range(60):
        k = rng.randint(1, 6)
        structure = random_case_structure(rng, rng.randint(1, 11 - k), k)
        distribution, value = minimax_distribution(structure)
        # the optimum may not be unique, so only the value must match
        assert value == vertex_minimax(structure)[1]
        assert all(p >= 0 for p in distribution) and sum(distribution) == 1
        assert max(case_marginals(structure, distribution).values()) == value


def test_minimax_of_every_builtin_strategy_matches_vertex_enumeration():
    structures = set()
    for t in range(8, 33):
        for f in range(1, 7):
            for d in range(t + 1):
                for name, build in BUILDERS.items():
                    for a in range(2, f + 1) if name == "equal-piles" else [None]:
                        try:
                            instance = ProblemInstance(t, f, d)
                            bundle = build(instance, a) if a else build(instance)
                        except ValueError:
                            continue  # d = f, or a precondition of the strategy fails
                        structures.add(bundle.cases)
    assert len(structures) > 300
    for structure in structures:
        assert minimax_distribution(structure) == vertex_minimax(structure)


def test_minimax_reaches_the_fraction_simplex_vertex_on_random_structures():
    # the same pivots under Bland's rule, so the same distribution, even
    # where the optimum is not unique
    rng = random.Random(1968)
    for _ in range(500):
        k = rng.randint(1, 8)
        structure = random_case_structure(rng, rng.randint(1, 14), k)
        distribution, value = minimax_distribution(structure)
        assert (distribution, value) == fraction_simplex_minimax(structure)
        assert max(case_marginals(structure, distribution).values()) == value


def test_minimax_reaches_the_fraction_simplex_vertex_on_builtins_and_triple_cases():
    structures = []
    instance = ProblemInstance(80, 3, 2)
    for name, build in BUILDERS.items():
        for a in (2, 3) if name == "equal-piles" else [None]:
            try:
                structures.append((build(instance, a) if a else build(instance)).cases)
            except ValueError:
                continue  # a precondition of the strategy fails at 80-3-2
    assert len(structures) == 4
    for t, f in TRIPLE_CASES:
        structures.append(build_triple_case(ProblemInstance(t, f, f - 1)).cases)
    for structure in structures:
        distribution, value = minimax_distribution(structure)
        assert (distribution, value) == fraction_simplex_minimax(structure)
        assert max(case_marginals(structure, distribution).values()) == value


def test_minimax_orders_share_rows_by_value_not_by_fakes_and_size():
    # 1 fake of 2 is the larger share, 2 fakes of 5 the larger pair; the
    # rows in another order reach another optimal vertex, (0, 1/6, 5/6)
    def piles(*spec):
        return tuple(Pile(frozenset(coins), fakes) for coins, fakes in spec)

    structure = CaseStructure(
        (
            piles(({6}, 1), ({3, 4}, 1), ({1}, 1)),
            piles(({4, 6}, 1), ({2, 3}, 1), ({0}, 1)),
            piles(({4, 6}, 1), ({0, 1, 2, 3, 5}, 2)),
        )
    )
    expected = ((Fraction(0), Fraction(0), Fraction(1)), Fraction(1, 2))
    assert minimax_distribution(structure) == fraction_simplex_minimax(structure) == expected


def test_minimax_makes_one_per_coin_pass_and_one_row_per_share(monkeypatch):
    import discreet_weighings.metrics as metrics

    calls, solved = [], []
    coin_shares, packing_vertex = metrics._coin_shares, metrics._packing_vertex

    def counted(structure):
        calls.append(structure)
        return coin_shares(structure)

    def recorded(rows, k):
        solved.append(rows)
        return packing_vertex(rows, k)

    monkeypatch.setattr(metrics, "_coin_shares", counted)
    monkeypatch.setattr(metrics, "_packing_vertex", recorded)
    cases = build_triple_case(ProblemInstance(200, 6, 5)).cases
    metrics.minimax_distribution(cases)
    assert calls == [cases]
    # 200 coins at risk in 18 pile signatures share 6 distinct rows
    keys, rows = coin_shares(cases)
    assert (len(keys), len(rows), len(solved[0]), len(set(solved[0]))) == (200, 18, 6, 6)


def test_minimax_never_beats_uniform_spread():
    # the optimal value is at least f / covered coins
    cases = build_triple_case(ProblemInstance(23, 5, 2)).cases
    _, value = minimax_distribution(cases)
    assert value >= Fraction(5, 23)


def test_minimax_floor_is_reached_by_equal_piles():
    from discreet_weighings import build_equal_piles

    for t, f, d, a in ((80, 2, 1, 2), (80, 4, 3, 2), (80, 4, 3, 4), (12, 4, 1, 2)):
        cases = build_equal_piles(ProblemInstance(t, f, d), a).cases
        _, value = minimax_distribution(cases)
        assert value == Fraction(f, t)


def test_minimax_self_check_survives_optimisation(monkeypatch):
    # the result check must raise, not assert: `python -O` drops asserts.
    # It tests the vertex against every share row, so a vertex that misses
    # every row, or that breaks one, is refused.  It tests the dual too: the
    # rows are (0, 1 | 1) and (1, 0 | 2) and y = (1, 1), so y = (3, 0)
    # covers case 0 with no weight and y = (2, 1) costs more than sum(q)
    import discreet_weighings.metrics as metrics

    structure = CaseStructure(((Pile(frozenset({0, 1})),), (Pile(frozenset({2})),)))
    original = metrics._packing_vertex
    assert original([(0, 1, 1), (1, 0, 2)], 2) == ([2, 1], 1, [1, 1])
    for corrupt in (
        lambda q, den, y: (q, 2 * den, y),
        lambda q, den, y: ([2 * x for x in q], den, y),
        lambda q, den, y: (q, den, [3, 0]),
        lambda q, den, y: (q, den, [2, 1]),
        lambda q, den, y: (q, den, [-x for x in y]),
    ):
        monkeypatch.setattr(metrics, "_packing_vertex", lambda rows, k: corrupt(*original(rows, k)))
        with pytest.raises(RuntimeError):
            metrics.minimax_distribution(structure)
