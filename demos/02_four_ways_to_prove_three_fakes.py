"""Four ways to prove "exactly three fakes" among 80 coins (against two).

80 is not divisible by 3, so the one-weighing trick from the two-fake story
does not apply.  This script builds four plans that all convince the judge,
then lets the deduction engine measure what each one gives away.

The punchline: the two discreet plans are not automatically the gentlest.
One indiscreet plan sacrifices three coins' privacy and ends up leaking the
least aggregate information of the lot.
"""

from discreet_weighings import (
    BUILDERS,
    ProblemInstance,
    classify_privacy,
    revealing_metrics,
    uniform_best_guess,
    verify_proof,
)

instance = ProblemInstance(t=80, f=3, d=2)
print(f"scenario: {instance.t} coins, {instance.f} fake, must rule out {instance.d}\n")

DESCRIPTIONS = {
    "leftover-reveal": "three piles of 26 balanced, leftovers chained to a borrowed coin",
    "reference-pile": "piles A, B, C each shown lighter than a fake-free pile D",
    "official": "five piles, two balances and one tilt",
    "triple-case": "nine piles, two star weighings of sizes 25 and 3",
}

rows = []
for name in ("leftover-reveal", "reference-pile", "official", "triple-case"):
    bundle = BUILDERS[name](instance)
    transcript = bundle.transcript()
    verdict = verify_proof(instance, transcript, bundle.placement)
    assert verdict.valid
    privacy = classify_privacy(instance, transcript)
    metrics = revealing_metrics(instance.t, instance.f, verdict.consistent_count_f)
    _, guess = uniform_best_guess(instance.f, transcript)
    rows.append(
        (
            name,
            len(bundle.plan.weighings),
            verdict.consistent_count_f,
            float(metrics.factor_x),
            float(metrics.coefficient_r),
            "yes" if privacy.discreet else f"no ({len(privacy.revealed_real)} shown real)",
            guess,
        )
    )

header = f"{'plan':<16} {'weighs':>6} {'survivors':>9} {'X':>6} {'R':>6}  {'discreet':<18} best guess"
print(header)
print("-" * len(header))
for name, weighs, count, x, r, discreet, guess in rows:
    print(f"{name:<16} {weighs:>6} {count:>9} {x:>6.2f} {r:>6.3f}  {discreet:<18} {guess}")

print()
for name, description in DESCRIPTIONS.items():
    print(f"  {name:<16} {description}")

print(
    "\nnote how leftover-reveal exposes three coins outright yet keeps the most\n"
    "survivors (16900), while the reference-pile plan matches the discreet\n"
    "official plan's factor exactly despite burning a quarter of the coins."
)
