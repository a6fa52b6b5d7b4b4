"""Quick-mode checks of the benchmark itself.

    python3 -m pytest bench -q

Each workload runs for one pass (--seconds 0), untraced and traced; every
metric BENCHMARK.json names must come out with its unit and every answer
must be right.  The oracle must also catch a wrong expected value.
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import oracle
import worker
import workloads
from run import tail

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layer figures that must be nonzero on each workload (the layers it calls).
CALLED = {
    "paper-80": ["cli.requests", "judge.survivors", "judge.assign_ms", "metrics.guess_sets",
                 "metrics.minimax_ms", "strategies.build_ms", "model.validate_calls"],
    "count-deep": ["judge.count_calls", "judge.vector_calls", "judge.vectors",
                   "judge.privacy_ms", "judge.verify_ms", "metrics.minimax_ms",
                   "strategies.build_ms"],
    "search-bounded": ["cli.requests", "search.nodes", "search.d_checks", "search.self_ms",
                       "search.nodes_per_s", "judge.vector_calls"],
    "verify-mixed": ["cli.requests", "cli.self_ms", "model.validate_calls",
                     "model.partition_calls", "model.classes_max", "judge.count_calls"],
}


def _bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return done, done.stdout.strip().splitlines()


def _result(workload, trace):
    done, lines = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(lines[-1])
    context = json.loads(next(l for l in lines if l.startswith("# context "))[len("# context "):])
    return result, context


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_reports_every_metric_and_no_error(workload):
    result, context = _result(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert context["error_rate"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result, context = _result(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert [name for name in CALLED[workload] if not metrics[name]["value"] > 0] == []
    assert (ROOT / context["spans_file"]).is_file()


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def lib():
    sys.path.insert(0, str(ROOT / "src"))
    import discreet_weighings
    import discreet_weighings.cli  # noqa: F401

    return discreet_weighings


def _first(workload, label_start):
    return next(r for r in workloads.build(workload, 1) if r.label.startswith(label_start))


@pytest.mark.parametrize(
    "workload,label,field,wrong",
    [
        ("paper-80", "construct equal-piles 80-2-1", "consistent_f", 1601),
        ("paper-80", "construct official", "guess_prob", 0.05),
        ("count-deep", "triple-case 121-4-3", "minimax", None),
        ("search-bounded", "impossible-3-5-7 3-2-1", "result", "found"),
        ("search-bounded", "witness-9-coins", "result", "exhausted"),
        ("search-bounded", "check_odd_t_itineraries", "all_satisfy", False),
    ],
)
def test_checker_flags_a_wrong_expected_value(lib, workload, label, field, wrong):
    request = _first(workload, label)
    answer = workloads.RUNNERS[request.kind](lib, request)
    expected = workloads.expected_answer(request)
    assert workloads.mismatches(request, answer, expected) == []
    corrupted = replace(request, expected=dict(expected, **{field: wrong}))
    assert workloads.mismatches(corrupted, answer, workloads.expected_answer(corrupted)) == [field]


def test_oracle_flags_a_wrong_verify_answer(lib):
    request = workloads.build("verify-mixed", 1)[0]
    answer = workloads.RUNNERS["cli"](lib, request)
    expected = workloads.expected_answer(request)
    assert workloads.mismatches(request, answer, expected) == []
    report = json.loads(json.dumps(expected["report"]))
    report["verdict"]["consistent_f"] += 1
    assert workloads.mismatches(request, answer, {"exit": expected["exit"], "report": report}) == [
        "report"
    ]


def test_oracle_against_hand_counts():
    # coins 0,1 against 2,3 balances with one fake on each pan (4 pairs);
    # with coin 4 off the scale a single fake can also balance, as coin 4
    weighings = [((0, 1), (2, 3))]
    code, report = oracle.verify_report(5, 2, 1, weighings, (0, 2))
    assert code == 1
    assert report["verdict"] == {"valid": False, "consistent_f": 4, "consistent_d": 1}
    code, report = oracle.verify_report(4, 2, 1, weighings, (0, 2))
    assert code == 0
    assert report["privacy"] == {"discreet": True, "revealed_real": [], "revealed_fake": []}
    assert report["metrics"]["X"] == {"num": 3, "den": 2, "approx": 1.5}
    assert report["guess"] == {"uniform": {"coin": 0, "prob": {"num": 1, "den": 2}}}
    assert oracle.is_discreet_proof(4, 2, 1, weighings, (0, 2))
    assert not oracle.is_discreet_proof(4, 2, 1, weighings, (0, 1))


def test_same_seed_same_inputs():
    first = [r.stdin for r in workloads.build("verify-mixed", 7)]
    assert first == [r.stdin for r in workloads.build("verify-mixed", 7)]
    assert first != [r.stdin for r in workloads.build("verify-mixed", 8)]


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert tail([float(x) for x in range(1, 21)]) == (10.0, 50.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_speedometer_leaves_its_own_time_out():
    assert worker.reference_computation() == worker.REFERENCE_COUNT
    clock = worker.Speedometer()
    clock.start()
    try:
        mark = clock.mark()
        while time.perf_counter() - mark[0] < 0.3:
            pass
        seconds, interval = clock.since(mark)
    finally:
        clock.stop()
    assert len(clock.samples) >= 3
    assert seconds == pytest.approx(interval[1] - interval[0] - sum(clock.samples), abs=1e-3)
    window = [took for stamp, took in zip(clock.stamps, clock.samples)
              if interval[0] - worker.WINDOW_S <= stamp <= interval[1] + worker.WINDOW_S]
    assert clock.speed(interval) == pytest.approx(worker.REFERENCE_S * len(window) / sum(window))


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done, lines = _bench("--workload", "paper-80", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in lines)
