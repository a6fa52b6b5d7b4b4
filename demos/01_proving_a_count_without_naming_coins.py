"""Prove HOW MANY coins are fake without pointing at any coin.

Eighty coins sit on the table.  Two of them are fake and lighter, and the
skeptic across the table believes it could just as well be one.  We must
convince them it is exactly two, without letting them learn anything about
any individual coin.
"""

from fractions import Fraction

from discreet_weighings import (
    ProblemInstance,
    build_equal_piles,
    classify_privacy,
    count_consistent,
    revealing_metrics,
    verify_proof,
)

instance = ProblemInstance(t=80, f=2, d=1)
print(f"scenario: {instance.t} coins, {instance.f} fake, must rule out {instance.d}")

# One weighing: two piles of 40, one fake hidden in each.
bundle = build_equal_piles(instance, a=2)
transcript = bundle.transcript()
print(f"\nwe weigh {sorted(bundle.plan.weighings[0].left)[:3]}...39 "
      f"against 40...{sorted(bundle.plan.weighings[0].right)[-1]}")
print(f"the scale reads: {transcript.outcomes[0].value}")

# The balance says both pans hold the same number of fakes, so the total is
# even: it cannot be 1.
verdict = verify_proof(instance, transcript, bundle.placement)
print(f"\nproof valid: {verdict.valid}")
print(f"  fake-pair hypotheses still alive: {verdict.consistent_count_f}")
print(f"  single-fake hypotheses still alive: {verdict.consistent_count_d}")

report = classify_privacy(instance, transcript)
print(f"discreet: {report.discreet} "
      f"(no coin is provably real or provably fake)")

# Discreet does not mean free.  Before the weighing any of C(80,2) = 3160
# pairs could be the fakes; afterwards only 40*40 = 1600 survive.
metrics = revealing_metrics(instance.t, instance.f, verdict.consistent_count_f)
print(f"\npossibilities before: {metrics.old_possibilities}")
print(f"possibilities after:  {metrics.new_possibilities}")
print(f"revealing factor  X = {metrics.factor_x} = {float(metrics.factor_x)}")
print(f"revealing coeff.  R = {metrics.coefficient_r} ~ {float(metrics.coefficient_r):.3f}")
print("\nabout half the distributional information is gone, yet every single")
print("coin is exactly as suspicious as it was before the weighing:")

per_coin_before = Fraction(instance.f, instance.t)
per_coin_after = Fraction(1, 40)
print(f"  chance a given coin is fake, before: {per_coin_before}  after: {per_coin_after}")

# Sanity: shrinking the pile count is impossible here (a must divide f=2),
# so one weighing with two piles is as gentle as this family gets.
prefix_count = count_consistent(instance.f, transcript)
assert prefix_count == 1600
