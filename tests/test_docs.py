"""The examples in the documentation run and print what they say."""

import contextlib
import doctest
import io
import re
import types
from pathlib import Path

import discreet_weighings
import discreet_weighings.judge
import discreet_weighings.metrics

ROOT = Path(__file__).resolve().parents[1]


def test_judge_docstring_examples():
    result = doctest.testmod(discreet_weighings.judge)
    assert result.attempted > 0 and result.failed == 0


def test_metrics_docstring_examples():
    result = doctest.testmod(discreet_weighings.metrics)
    assert result.attempted > 0 and result.failed == 0


def test_public_api_is_pinned():
    # every change to the package's public names shows up as a diff here
    public = sorted(
        name
        for name, value in vars(discreet_weighings).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == [
        "BUILDERS",
        "CaseStructure",
        "ConstructionError",
        "InvalidProofError",
        "ItineraryProfile",
        "OddTItineraryReport",
        "Outcome",
        "Pile",
        "PrivacyReport",
        "ProblemInstance",
        "ProofVerdict",
        "RevealingMetrics",
        "StrategyBundle",
        "Transcript",
        "ValidationError",
        "Weighing",
        "WeighingPlan",
        "all_discreet_profiles",
        "build_equal_piles",
        "build_leftover_reveal",
        "build_official",
        "build_reference_pile",
        "build_triple_case",
        "case_marginals",
        "check_odd_t_itineraries",
        "classify_privacy",
        "conjugate",
        "count_consistent",
        "equal_piles_factor",
        "equal_piles_factor_limit",
        "itinerary_of",
        "minimax_distribution",
        "optimal_f2_new_possibilities",
        "partition_by_itinerary",
        "plan_from_json",
        "plan_to_json",
        "revealing_metrics",
        "search_discreet",
        "simulate_outcome",
        "simulate_transcript",
        "transcript_from_json",
        "transcript_to_json",
        "uniform_best_guess",
        "validate_plan",
        "verify_proof",
    ]


def test_readme_quick_start_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    lines = block.splitlines()
    # a print's output is the comment on its line, or on the next line
    comments = [
        line.partition("  # ")[2] or lines[i + 1].lstrip("# ")
        for i, line in enumerate(lines)
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments)
    for text, comment in zip(printed, comments):
        assert comment.startswith(text), (text, comment)
