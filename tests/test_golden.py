"""Golden outputs: every reproduced record stays byte-identical.

Each record is a CLI stdout or the JSON of a search result, hashed with
SHA-256 and kept as its first 16 hex digits in `golden.json`, keyed by the
record, so a failure names the records that moved.  A record whose key
starts with `cli ` hashes the exit code, stdout and stderr of its request
together, so a request that fails is pinned too.  The digests were taken
from the code before the judge and the search shared one routing step,
those of the three larger three-weighing searches from the code before the
search's last weighing refined its size-d vectors first, and those of the
`cli ` records from the code before the CLI's handlers left the writing of
their output to `main`.

To rewrite the fixture after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from discreet_weighings import (
    ProblemInstance,
    all_discreet_profiles,
    build_official,
    check_odd_t_itineraries,
    search_discreet,
)
from discreet_weighings.cli import main
from discreet_weighings.model import plan_to_json

FIXTURE = Path(__file__).with_name("golden.json")

# the bench's paper-80 requests: seven constructions and one guess
PAPER_80 = (
    ("construct", "official", "--t", "80", "--f", "3", "--d", "2"),
    ("construct", "leftover-reveal", "--t", "80", "--f", "3", "--d", "2"),
    ("construct", "reference-pile", "--t", "80", "--f", "3", "--d", "2"),
    ("construct", "triple-case", "--t", "80", "--f", "3", "--d", "2"),
    ("construct", "equal-piles", "--t", "80", "--f", "2", "--d", "1", "--a", "2"),
    ("construct", "equal-piles", "--t", "80", "--f", "4", "--d", "3", "--a", "4"),
    ("construct", "equal-piles", "--t", "80", "--f", "4", "--d", "3", "--a", "2"),
    ("guess", "triple-case", "--t", "80", "--f", "3", "--d", "2"),
)


def _stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return out.getvalue()


def _run(*argv, stdin="") -> str:
    """The exit code, stdout and stderr of one CLI call, as one JSON text."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return json.dumps([code, out.getvalue(), err.getvalue()])


def _official_plan_files():
    """(name, JSON text) of the official 80-3-2 plan file: as built, with its
    outcomes, and with one outcome flipped so that the proof fails."""
    bundle = build_official(ProblemInstance(80, 3, 2))
    data = plan_to_json(bundle.plan)
    data["placement"] = sorted(bundle.placement)
    yield "plain", json.dumps(data)
    outcomes = [o.value for o in bundle.transcript().outcomes]
    yield "outcomes", json.dumps({**data, "outcomes": outcomes})
    outcomes[outcomes.index("balanced")] = "left_lighter"
    yield "tampered", json.dumps({**data, "outcomes": outcomes})


def _cli_records():
    """(key, text) of the CLI requests pinned with their exit code and stderr."""
    for name, text in _official_plan_files():
        argv = ("verify", "-", "--f", "3", "--d", "2")
        yield f"cli verify official-80-3-2 {name}", _run(*argv, stdin=text)
        if name == "plain":
            yield f"cli verify official-80-3-2 {name} --human", _run(*argv, "--human", stdin=text)
    for argv in (
        ("construct", "official", "--t", "80", "--f", "3", "--d", "2", "--human"),
        ("metrics", "--t", "80", "--f", "3", "--new", "8000"),
        ("metrics", "--t", "80", "--f", "4", "--a", "2"),
        ("search", "--t", "5", "--f", "2", "--d", "1", "--max-weighings", "3"),
        ("search", "--t", "9", "--f", "2", "--d", "1", "--max-weighings", "2"),
        ("reproduce",),
        ("reproduce", "--filter", "search"),
        ("reproduce", "--filter", "no-such-check"),
    ):
        yield "cli " + " ".join(argv), _run(*argv)


def _instances(max_t):
    for t in range(2, max_t + 1):
        for f in range(1, t):
            for d in range(t + 1):
                if d != f:
                    yield t, f, d


def _search(t, f, d, w):
    bundle = search_discreet(t, f, d, w)
    return f"search {t}-{f}-{d}-{w}", json.dumps(bundle and bundle.to_json(), sort_keys=True)


def records():
    """(key, text) for every golden record, in a fixed order."""
    yield "reproduce --json", _stdout("reproduce", "--json")
    for argv in PAPER_80:
        yield " ".join(argv), _stdout(*argv)
    for w, max_t in ((1, 9), (2, 9), (3, 7)):
        for t, f, d in _instances(max_t):
            yield _search(t, f, d, w)
    # the larger three-weighing searches, where most splits have leaf children
    for t, f, d in ((8, 2, 0), (10, 3, 2), (11, 4, 3)):
        yield _search(t, f, d, 3)
    for w in (1, 2):
        for t, f, d in _instances(9):
            profiles = all_discreet_profiles(t, f, d, w)
            yield f"profiles {t}-{f}-{d}-{w}", json.dumps([p.counts for p in profiles])
    for t in (3, 5, 7, 9):
        yield f"odd-t {t}-3", repr(check_odd_t_itineraries(t, 3))
    yield from _cli_records()


def digests() -> dict:
    return {key: hashlib.sha256(text.encode()).hexdigest()[:16] for key, text in records()}


def test_reproduced_outputs_match_their_golden_digests():
    expected = json.loads(FIXTURE.read_text())
    found = digests()
    assert found.keys() == expected.keys()
    moved = sorted(key for key in expected if found[key] != expected[key])
    assert not moved, f"{len(moved)} records moved: {moved[:20]}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(digests(), indent=0) + "\n")
