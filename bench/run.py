"""Benchmark of the discreet-weighings library, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-80 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seconds 0     # every workload, one pass each

Each workload runs in its own fresh interpreter (bench/worker.py) under an
address-space cap, driving the library in process: `cli.main(argv)` and the
public functions, one client, closed loop.  Every answer is checked against
an expected value computed without the library (bench/workloads.py,
bench/oracle.py).

With --trace 0 the end-to-end metrics are reported: the median wall time
of a pass over the request list; the median and tail, over the request
list, of each request's median latency in the run; peak RSS of the
workload's process; and set-up time (the median over several fresh
interpreters of importing the library and building the inputs).  With
--trace 1 untraced and traced passes alternate, and the per-layer metrics of
the traced passes are reported together with the tracing overhead; the spans
of the first traced pass are written to bench/out/.

Times are given at reference speed.  A shared machine runs the same code up
to twice as fast or slow from one moment to the next, so each time is
scaled by how fast a fixed reference ran around it, and reads as the time
on a machine where the reference takes a fixed time.  Pass and request
times use a computation of the benchmark's own, timed every 10 ms inside
the worker (worker.Speedometer); set-up times use importing a fixed set of
standard-library modules in a fresh interpreter, timed just before and just
after each set-up probe.  The raw medians and the median speed factor are
printed on the "#" lines.

Lines starting with "#" describe the run (seed, versions, repeat counts,
error rate, which percentile the tail is); the last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
# Set-up is mostly importing modules, which a shared machine slows down
# unlike computation, so its reference is importing these standard-library
# modules in a fresh interpreter; IMPORT_REFERENCE_S is about how long that
# takes on the 2-vCPU Intel Xeon virtual machine the bounds were set on.
IMPORT_REFERENCE = ("email.mime.multipart", "xml.dom.minidom", "http.client", "unittest",
                    "asyncio", "decimal", "logging.handlers", "sqlite3", "tarfile", "zipfile",
                    "ssl", "csv")
IMPORT_REFERENCE_S = 0.08
TIME_LIMIT_S = 170  # per workload, below the 180 s a run may take

END_TO_END_UNITS = {
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def tail(latencies):
    """(latency, percentile): the highest nearest-rank percentile with at
    least ten samples above it, or the maximum when there are fewer than
    eleven samples."""
    ordered = sorted(latencies)
    index = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[index], 100 * (index + 1) / len(ordered)


def scaled_median(times, speeds) -> float:
    """Median of the times, each at reference speed."""
    return statistics.median(t * speed for t, speed in zip(times, speeds))


def _run(command, what, deadline) -> list:
    """Standard output lines of a child process that must succeed in time."""
    try:
        done = subprocess.run(command, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} did not finish within the time limit") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{what} exited with code {done.returncode}")
    return lines


def _import_reference(deadline) -> float:
    """Seconds a fresh interpreter takes to import IMPORT_REFERENCE."""
    code = ("import time; began = time.perf_counter(); import "
            + ", ".join(IMPORT_REFERENCE) + "; print(time.perf_counter() - began)")
    return float(_run([sys.executable, "-c", code], "the import reference", deadline)[-1])


def _worker(workload, seed, seconds, trace, mode, deadline) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
               str(trace), mode]
    # Where setarch is at hand, the worker's addresses are not randomised:
    # a fresh memory layout per run moved short requests by up to a tenth.
    setarch = shutil.which("setarch")
    if setarch:
        command = [setarch, "-R", *command]
    return json.loads(_run(command, f"{workload} {mode}", deadline)[-1])


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload; returns the result object the last line carries."""
    deadline = time.monotonic() + TIME_LIMIT_S
    # Set-up probes alternate with the import reference, and each is scaled
    # by the mean of the reference times just before and after it.
    setups, setup_speeds = [], []
    if not trace:
        references = [_import_reference(deadline)]
        for _ in range(SETUP_PROBES):
            setups.append(_worker(workload, seed, seconds, trace, "probe", deadline)["setup_s"])
            references.append(_import_reference(deadline))
            setup_speeds.append(2 * IMPORT_REFERENCE_S / (references[-2] + references[-1]))
    run = _worker(workload, seed, seconds, trace, "run", deadline)

    # Medians over the passes of the run, not fastest passes: the quiet
    # moments those rely on come in some runs and not in others.  Latency
    # figures are taken over the request list, each request's median.
    latencies = [statistics.median(each) for each in zip(*run["latencies_s"])]
    wall = scaled_median(run["wall_s"], run["wall_speed"])
    if trace:
        overhead = scaled_median(run["traced_wall_s"], run["traced_wall_speed"]) - wall
        values = dict(run["layers"], **{"trace.overhead_s": overhead})
        units = dict(LAYER_UNITS, **{"trace.overhead_s": "s"})
    else:
        scaled = [
            scaled_median(each, speeds)
            for each, speeds in zip(zip(*run["latencies_s"]), zip(*run["latency_speed"]))
        ]
        values = {
            "wall_s": wall,
            "req_p50_ms": statistics.median(scaled) * 1000,
            "req_tail_ms": tail(scaled)[0] * 1000,
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": scaled_median(setups, setup_speeds),
        }
        raw = {
            "wall_s": statistics.median(run["wall_s"]),
            "req_p50_ms": statistics.median(latencies) * 1000,
            "req_tail_ms": tail(latencies)[0] * 1000,
            "setup_s": statistics.median(setups),
            "import_reference_s": statistics.median(references),
            "speed_factor": statistics.median(run["wall_speed"]),
        }
        units = END_TO_END_UNITS
    context = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": run["python"],
        "numpy": run["numpy"],
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "passes": run["passes"],
        "requests_per_pass": run["requests"],
        "tail_percentile": tail(latencies)[1],
        "latency_samples": len(latencies),
        "setup_samples": len(setups),
        "reference_samples": run["reference_samples"],
        "error_rate": run["failed"] / run["attempted"],
    }
    if trace:
        context["traced_passes"] = len(run["traced_wall_s"])
        context["spans_file"] = run["spans_file"]
    else:
        context["raw"] = raw
    return {
        "context": context,
        "failures": run["failures"],
        "result": {
            "correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        },
    }


def _print_report(report) -> None:
    print("# context " + json.dumps(report["context"]))
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    for name, metric in report["result"]["metrics"].items():
        print(f"# {report['context']['workload']:<15} {name:<24} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="how long each run measures; 0 makes one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    if not (ROOT / "src" / "discreet_weighings" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/discreet_weighings; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds, args.trace)
            _print_report(report)
            results[name] = report["result"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
