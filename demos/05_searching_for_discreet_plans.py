"""When do discreet plans exist at all?  Ask the bounded search.

For tiny tables we can enumerate every plan shape (up to relabeling coins)
and every placement, and either produce a witness or certify that nothing
with at most w weighings works.  Certificates are always relative to that
bound; the library never claims more.
"""

from discreet_weighings import (
    check_odd_t_itineraries,
    classify_privacy,
    count_consistent,
    optimal_f2_new_possibilities,
    partition_by_itinerary,
    search_discreet,
    verify_proof,
)
from discreet_weighings.search import ItineraryProfile

BOUND = 3

print(f"two fakes, one to disprove, plans of at most {BOUND} weighings:\n")
for t in (3, 4, 5, 6, 7, 8, 9):
    witness = search_discreet(t, 2, 1, BOUND)
    if witness is None:
        print(f"  t = {t}: exhausted, no discreet plan within {BOUND} weighings")
    else:
        profile = ItineraryProfile.from_plan(witness.plan)
        survivors = count_consistent(2, witness.transcript())
        print(
            f"  t = {t}: witness with {len(witness.plan.weighings)} weighing(s), "
            f"{len(profile.counts)} itinerary classes, {survivors} survivors"
        )

print("\nodd tables need room: 3, 5, 7 are impossible, 9 is the first odd win.")

witness = search_discreet(9, 2, 1, 2)
transcript = witness.transcript()
assert verify_proof(witness.instance, transcript, witness.placement).valid
assert classify_privacy(witness.instance, transcript).discreet
print("\nthe 9-coin witness, coin ranges by itinerary:")
for itinerary, coins in partition_by_itinerary(witness.plan).items():
    print(f"  {itinerary}: {sorted(coins)}")

print("\nstructural facts checked over every bounded witness at odd t:")
for t in (5, 9, 11):
    report = check_odd_t_itineraries(t, 2)
    status = "vacuous (no witnesses)" if report.vacuous else (
        f"{report.witnesses_checked} witnesses, all with >= 6 classes and >= 3 odd pairs"
    )
    print(f"  t = {t:>2}: {status}")

print("\nhow gentle can a plan be?  the exact optimum of surviving fake pairs:")
for t in (12, 13, 20, 80, 81):
    result = optimal_f2_new_possibilities(t)
    value, pairs = result
    print(f"  t = {t:>2}: {value:>5} survivors at best, via conjugate pairs {pairs}")
