"""The examples in the documentation run and print what they say."""

import ast
import contextlib
import dataclasses
import doctest
import importlib
import io
import re
import types
from pathlib import Path

import discreet_weighings
import discreet_weighings.judge
import discreet_weighings.metrics

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(discreet_weighings.__file__).resolve().parent


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


def _package_names() -> set:
    """Every name defined in a package module or in one of its classes,
    dataclass fields included."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(f"discreet_weighings.{path.stem}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                names.update(vars(value))
                if dataclasses.is_dataclass(value):
                    names.update(field.name for field in dataclasses.fields(value))
        names.update(vars(module))
    return names


def _docs():
    """(where, text) for README.md and each docstring of a package module,
    class or function, nested functions included."""
    yield "README.md", (ROOT / "README.md").read_text()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    yield f"{path.name}:{getattr(node, 'name', 'module')}", doc


def test_backticked_private_names_in_the_docs_exist():
    # a doc that names a deleted helper, such as `_walk_key`, fails here
    names = _package_names()
    stale = []
    checked = 0
    for where, text in _docs():
        for match in re.finditer(r"(`+)(.+?)\1", text, re.S):
            lead = re.match(r"[A-Za-z_][\w.]*", match.group(2))
            name = lead.group(0).rsplit(".", 1)[-1] if lead else ""
            if name.startswith("_"):
                checked += 1
                if name not in names:
                    stale.append((where, lead.group(0)))
    assert checked > 0 and not stale, stale
