"""Balance-scale weighing plans that prove how many coins are fake while
leaking as little as possible about which ones, with exact leakage metrics,
a judge-side deduction engine, and bounded searches for discreet plans."""

from .judge import (
    InvalidProofError,
    PrivacyReport,
    ProofVerdict,
    classify_privacy,
    count_consistent,
    uniform_best_guess,
    verify_proof,
)
from .metrics import (
    CaseStructure,
    Pile,
    RevealingMetrics,
    case_marginals,
    equal_piles_factor,
    equal_piles_factor_limit,
    minimax_distribution,
    revealing_metrics,
)
from .model import (
    Outcome,
    ProblemInstance,
    Transcript,
    ValidationError,
    Weighing,
    WeighingPlan,
    conjugate,
    itinerary_of,
    partition_by_itinerary,
    plan_from_json,
    plan_to_json,
    simulate_transcript,
    transcript_from_json,
    transcript_to_json,
    validate_plan,
)
from .search import (
    ItineraryProfile,
    OddTItineraryReport,
    all_discreet_profiles,
    check_odd_t_itineraries,
    optimal_f2_new_possibilities,
    search_discreet,
)
from .strategies import (
    BUILDERS,
    ConstructionError,
    StrategyBundle,
    build_equal_piles,
    build_leftover_reveal,
    build_official,
    build_reference_pile,
    build_triple_case,
)

__version__ = "0.1.0"
