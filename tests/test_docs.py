"""The examples in the documentation run and print what they say."""

import contextlib
import doctest
import io
import re
from pathlib import Path

import discreet_weighings.judge
import discreet_weighings.metrics

ROOT = Path(__file__).resolve().parents[1]


def test_judge_docstring_examples():
    result = doctest.testmod(discreet_weighings.judge)
    assert result.attempted > 0 and result.failed == 0


def test_metrics_docstring_examples():
    result = doctest.testmod(discreet_weighings.metrics)
    assert result.attempted > 0 and result.failed == 0


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
