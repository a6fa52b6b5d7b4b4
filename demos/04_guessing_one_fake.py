"""The judge only wants ONE fake coin.  How should the lawyer hide them?

The triple-case plan for 80-3-2 leaves three indistinguishable stories: the
fakes sit one per A pile (sizes 24, 24, 23), one per B pile (1, 1, 2), or
one per C pile (2, 2, 1).  The weighings are identical either way, so the
lawyer is free to choose which story is true, even randomly.

Choosing badly is expensive: the B piles are tiny, and a judge who knows the
lawyer flips a fair three-sided die can grab a B coin and win a third of the
time.  The exact minimax mix makes the judge's best coin worth only 1/25.
"""

from fractions import Fraction

from discreet_weighings import (
    ProblemInstance,
    build_triple_case,
    case_marginals,
    count_consistent,
    minimax_distribution,
    uniform_best_guess,
)

instance = ProblemInstance(t=80, f=3, d=2)
bundle = build_triple_case(instance)
sizes = [[len(p.coins) for p in case] for case in bundle.cases.cases]
print(f"cases and pile sizes: A {sizes[0]}, B {sizes[1]}, C {sizes[2]}\n")

naive = [Fraction(1, 3)] * 3
marginals = case_marginals(bundle.cases, naive)
worst_coin = max(marginals, key=lambda c: (marginals[c], -c))
print("naive lawyer (each case with probability 1/3):")
print(f"  judge picks coin {worst_coin} and wins with {marginals[worst_coin]}")

distribution, value = minimax_distribution(bundle.cases)
print("\nminimax lawyer:")
print(f"  case probabilities {tuple(str(p) for p in distribution)}")
print(f"  judge's best coin is worth only {value}")
print(f"  baseline before any weighing: f/t = {Fraction(instance.f, instance.t)}")

# A completely different question: if the lawyer committed to one fixed
# placement and the judge treats every surviving fake set as equally likely,
# the judge's best coin is one of the A3 coins:
transcript = bundle.transcript()
coin, prob = uniform_best_guess(instance.t, instance.f, transcript)
print(
    f"\nuniform-over-survivors view: coin {coin} appears in {prob} of the "
    f"{count_consistent(instance.t, instance.f, transcript)} surviving sets"
)
print("(that is 576/13254 ~ 1/23, worse for the lawyer than the minimax 1/25;")
print(" uniform weighting over sets is not how an optimal lawyer plays)")
