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
from helpers import brute_best_guess, brute_consistent, random_case_structure, vertex_minimax


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
    with pytest.raises(ValueError):
        CaseStructure(())
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
    assert uniform_best_guess(4, 2, balanced) == (0, Fraction(1, 2))
    assert brute_best_guess(brute_consistent(4, 2, balanced)) == (0, Fraction(1, 2))
    with pytest.raises(ValueError):
        uniform_best_guess(4, 1, balanced)


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


def test_case_marginals_validation():
    cases = CaseStructure(((Pile(frozenset({0})),),))
    assert case_marginals(cases, [1]) == {0: Fraction(1)}
    with pytest.raises(ValueError):
        case_marginals(cases, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        case_marginals(cases, [Fraction(1, 2)])


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
    # the result check must raise, not assert: `python -O` drops asserts
    import discreet_weighings.metrics as metrics

    structure = CaseStructure(((Pile(frozenset({0, 1})),), (Pile(frozenset({2})),)))
    monkeypatch.setattr(metrics, "case_marginals", lambda s, p: {0: Fraction(1)})
    with pytest.raises(RuntimeError):
        metrics.minimax_distribution(structure)
