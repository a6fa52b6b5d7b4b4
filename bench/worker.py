"""One workload in one fresh interpreter, started by run.py.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE MODE

MODE "probe" only imports the library and builds the inputs, then prints
the set-up time.  MODE "run" also times closed-loop passes over the request
list, a single client sending each request after the previous one answered,
until SECONDS have passed (at least one pass), and checks every answer.
With TRACE 1 untraced and traced passes alternate.  The last line of
standard output is one JSON object.

After set-up a Speedometer also times a fixed reference computation every
INTERVAL_S, so that each timing comes with how fast the machine ran around
it (see run.py).  Its timings take about 2% of the time, which traced
spans include and every timing the worker reports leaves out.

Arguments are read from sys.argv by hand, and nothing the library imports is
imported before the set-up clock starts, so that the set-up time is what a
user's fresh interpreter pays.
"""

import signal
import sys
import time

import resource

# A memory blow-up fails the request that caused it (MemoryError) instead
# of taking down the machine, which has no swap.
ADDRESS_SPACE_CAP = 3 << 30

# The machine's speed changes within tens of milliseconds, so the reference
# is short and timed often, and a timing's speed comes from the reference
# timings closest to it.
INTERVAL_S = 0.01  # between two timings of the reference computation
WINDOW_S = 0.01  # reference timings this close to a timing give its speed
# About the reference computation's time on the 2-vCPU Intel Xeon virtual
# machine the bounds were set on; timings are scaled to this speed.
REFERENCE_S = 0.0002

# (left pan, right pan, sign) bit masks of a fixed three-weighing plan on
# 14 coins, and how many 3-coin sets show the signs of fakes 0, 4 and 10.
REFERENCE_PLAN = ((0b11, 0b1100, 1), (0b111 << 4, 0b111 << 7, 1), (0b11 << 10, 0b11 << 12, 1))
REFERENCE_COUNT = 12


def reference_computation() -> int:
    """Brute-force count of the 3-coin sets that REFERENCE_PLAN leaves, in
    plain Python that shares no code with the library, so that no change to
    the library moves its time."""
    found = 0
    for a in range(14):
        for b in range(a + 1, 14):
            for c in range(b + 1, 14):
                coins = 1 << a | 1 << b | 1 << c
                for left, right, sign in REFERENCE_PLAN:
                    diff = (coins & left).bit_count() - (coins & right).bit_count()
                    if (diff > 0) - (diff < 0) != sign:
                        break
                else:
                    found += 1
    return found


class Speedometer:
    """Times the reference computation every INTERVAL_S of wall time, from a
    SIGALRM handler, so its timings spread evenly over whatever the process
    is doing.  A shared machine runs the same code up to twice as fast or
    slow from one moment to the next; the mean reference time around an
    interval says how fast it ran then.  The handler's own time is left out
    of every timing taken with mark() and since()."""

    def __init__(self):
        self.stamps = []  # when each periodic timing began
        self.samples = []  # how long it took
        self.spent = 0.0

    def start(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    @staticmethod
    def stop():
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, *_):
        started = time.perf_counter()
        reference_computation()
        took = time.perf_counter() - started
        self.stamps.append(started)
        self.samples.append(took)
        self.spent += took

    def mark(self):
        while True:  # retry if the handler ran while the clock was read
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now, spent

    def since(self, mark):
        """(seconds since `mark` without the handler's time, (start, end))."""
        now, spent = self.mark()
        return now - mark[0] - (spent - mark[1]), (mark[0], now)

    def speed(self, interval) -> float:
        """REFERENCE_S over the mean reference time from WINDOW_S before the
        interval to WINDOW_S after it, or over the two timings either side
        of it if a long call held the handler off for the whole window."""
        from bisect import bisect_left, bisect_right

        low = bisect_left(self.stamps, interval[0] - WINDOW_S)
        high = bisect_right(self.stamps, interval[1] + WINDOW_S)
        window = self.samples[low:high] or self.samples[max(low - 1, 0):low + 1]
        return REFERENCE_S * len(window) / sum(window)


def _timed_pass(lib, requests, runners, clock, tracer=None):
    """(wall, interval, latencies, intervals, answers) of one pass."""
    latencies, intervals, answers = [], [], []
    begin = clock.mark()
    for index, request in enumerate(requests):
        if tracer is not None:
            tracer.request = index
        started = clock.mark()
        try:
            answers.append((runners[request.kind](lib, request), None))
        except Exception as exc:  # a failed request is counted, not fatal
            answers.append((None, f"{type(exc).__name__}: {exc}"))
        latency, interval = clock.since(started)
        latencies.append(latency)
        intervals.append(interval)
    return (*clock.since(begin), latencies, intervals, answers)


def main(argv) -> int:
    workload, seed, seconds, trace, mode = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    start = time.perf_counter()
    import importlib
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    lib = importlib.import_module("discreet_weighings")
    importlib.import_module("discreet_weighings.cli")
    import workloads

    requests = workloads.build(workload, seed)
    setup_s = time.perf_counter() - start

    import gc
    import json
    import statistics

    if not Path(lib.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported {lib.__file__}, not the checkout's copy", file=sys.stderr)
        return 3
    if mode == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if reference_computation() != REFERENCE_COUNT:
        print("error: the reference computation counted wrong", file=sys.stderr)
        return 3
    clock = Speedometer()
    clock.start()

    import tracer as tracing

    expected = [workloads.expected_answer(r) for r in requests]
    tracer = tracing.Tracer(lib) if trace else None
    # traced: (pass walls, pass intervals, latencies, intervals), a list each
    timings = {False: ([], [], [], []), True: ([], [], [], [])}
    layers = []
    failures, attempted, kept_spans = [], 0, None
    began = time.perf_counter()
    while True:
        round_began = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            gc.collect()
            if traced:
                tracer.reset()
                with tracer.installed():
                    *timing, answers = _timed_pass(lib, requests, workloads.RUNNERS, clock, tracer)
                layers.append(
                    tracing.layer_metrics(tracer.spans, tracer.counts, tracer.classes, len(requests))
                )
                kept_spans = kept_spans or tracer.spans
            else:
                *timing, answers = _timed_pass(lib, requests, workloads.RUNNERS, clock)
            for kept, value in zip(timings[traced], timing):
                kept.append(value)
            attempted += len(requests)
            for request, want, (answer, error) in zip(requests, expected, answers):
                wrong = [error] if error else workloads.mismatches(request, answer, want)
                if wrong:
                    failures.append(f"{request.label}: {'; '.join(wrong)}")
            del answers
        # Start another round only if it should end within the time given.
        now = time.perf_counter()
        if now - began + (now - round_began) > seconds:
            break
    clock.stop()

    result = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "reference_samples": len(clock.samples),
        "passes": len(timings[False][0]),
        "requests": len(requests),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "wall_s": timings[False][0],
        "wall_speed": [clock.speed(interval) for interval in timings[False][1]],
        "latencies_s": timings[False][2],
        "latency_speed": [[clock.speed(i) for i in each] for each in timings[False][3]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
    }
    if trace:
        result["traced_wall_s"] = timings[True][0]
        result["traced_wall_speed"] = [clock.speed(interval) for interval in timings[True][1]]
        result["layers"] = {
            name: statistics.median(pass_layers[name] for pass_layers in layers)
            for name in layers[0]
        }
        out = root / "bench" / "out"
        out.mkdir(exist_ok=True)
        spans_file = out / f"spans-{workload}.json"
        with open(spans_file, "w") as handle:
            json.dump(
                {
                    "workload": workload,
                    "seed": seed,
                    "fields": ["id", "parent", "request", "name", "start_ns", "end_ns", "self_ns"],
                    "requests": [r.label for r in requests],
                    "spans": kept_spans,
                },
                handle,
            )
        result["spans_file"] = str(spans_file.relative_to(root))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        # An alarm after the interpreter has begun to shut down would kill it.
        Speedometer.stop()
    sys.exit(code)
