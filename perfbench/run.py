"""Benchmark of the symbic library: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload matrices --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout.  Inputs are made from
the seed before any timer starts.  The timed phase repeats passes over the
workload's items for about ``--seconds`` (at least one pass); every item's
outcome is checked against an answer known by construction, outside its
timed call.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics.  With
``--trace 1`` the run makes one untraced pass and one traced pass and
reports the per-layer metrics of the traced pass; its spans are written to
``.perfbench-traces/`` in the checkout.  README.md says what each workload
and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-traces"
WORKLOADS = ("matrices", "cones", "catalog")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples a tail percentile leaves above it
# Median time of ``calibration_kernel`` on the 2-core x86-64 host running
# CPython 3.11 where the benchmark was defined.  Timings are reported at
# that host speed (see ``at_reference_speed``).
REFERENCE_KERNEL_S = 1.5e-3

# End-to-end metrics, in output order: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("first_p50_ms", "ms"),
    ("first_tail_ms", "ms"),
    ("second_p50_ms", "ms"),
    ("second_tail_ms", "ms"),
)

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import symbic.cli; print(time.perf_counter() - t)"
)


def calibration_kernel() -> frozenset:
    """Fixed pure-Python work of the library's kind (exact fractions, tuple
    keys, dictionaries); it never calls the library."""
    total = Fraction(0)
    best: dict = {}
    for i in range(1, 240):
        total += Fraction(i % 7 + 1, i % 5 + 1)
        key = (i % 13, i % 11)
        best[key] = min(best.get(key, total), total)
    return frozenset(best.items())


def calibrate() -> float:
    """Seconds of one run of the calibration kernel."""
    gc.disable()  # the kernel makes no cycles; the library's garbage stays out
    try:
        start = perf_counter()
        calibration_kernel()
        return perf_counter() - start
    finally:
        gc.enable()


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Scale a timing to the reference host speed.

    The host's speed drifts by up to a fifth over milliseconds to minutes,
    and moves the kernel and the library alike.  Every timed call is
    bracketed by two kernel runs; dividing by their mean speed cancels the
    drift, so that runs made at different moments compare.
    """
    return seconds * REFERENCE_KERNEL_S * 2 / (before + after)


def import_seconds() -> float:
    """Wall time of ``import symbic.cli`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup(workloads, name: str, seed: int, sizes=None):
    """Set up ``SETUP_REPEATS`` times: the median set-up time at reference
    speed, and the items of the last round (every round builds the same)."""
    rounds = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        imported = import_seconds()
        start = perf_counter()
        items = workloads.build(name, seed, sizes)
        seconds = imported + perf_counter() - start
        rounds.append(at_reference_speed(seconds, before, calibrate()))
    return statistics.median(rounds), items


class Pass:
    """Outcome of one pass.  ``timings`` holds (item index, seconds of its
    call at reference speed) for every call made."""

    def __init__(self) -> None:
        self.timings: list[tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0

    @property
    def solve_s(self) -> float:
        return sum(seconds for _, seconds in self.timings)


def run_pass(workloads, items, tracer=None) -> Pass:
    """Time each item's call alone; preparation, calibration and the
    known-answer check stay outside the timer.  A wrong answer or an
    unexpected exception is a failed item, reported on stderr; it never
    stops the pass."""
    result = Pass()
    state: dict = {}
    for position, index in enumerate(workloads.pass_order(items)):
        item = items[index]
        result.attempted += 1
        try:
            arg = item.prepare(state)
            before = calibrate()
            if tracer is not None:
                tracer.item_id, tracer.active = position, True
            start = perf_counter()
            try:
                outcome = item.call(arg)
            except Exception as exc:  # the check decides whether it was expected
                outcome = exc
            seconds = perf_counter() - start
            if tracer is not None:
                tracer.active = False
            result.timings.append((index, at_reference_speed(seconds, before, calibrate())))
            ok = item.check(outcome, state)
        except Exception:
            if tracer is not None:
                tracer.active = False
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            result.failed += 1
            print(f"item {index} ({item.kind}) failed its check", file=sys.stderr)
    return result


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2 or pct >= 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ``TAIL_BEYOND`` samples
    above it."""
    if samples <= TAIL_BEYOND:
        return 100
    return math.floor(100 * (1 - TAIL_BEYOND / samples))


def end_to_end(setup_s: float, passes: list[Pass], items) -> dict[str, float]:
    """An item's cost is the median of its timings over the run's passes;
    ``solve_s`` runs every item once at that cost."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    timings: dict[int, list[float]] = {}
    for p in passes:
        for index, seconds in p.timings:
            timings.setdefault(index, []).append(seconds)
    cost = {i: statistics.median(t) for i, t in sorted(timings.items())}
    metrics = {
        "setup_s": setup_s,
        "solve_s": sum(cost.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    for kind in ("first", "second"):
        ms = [c * 1000 for i, c in cost.items() if items[i].kind == kind]
        metrics[f"{kind}_p50_ms"] = statistics.median(ms)
        metrics[f"{kind}_tail_ms"] = percentile(ms, tail_percentile(len(ms)))
    return metrics


def measure(workloads, name: str, seed: int, seconds: float, sizes=None):
    """Untraced run: the end-to-end metrics, and the passes made."""
    setup_s, items = setup(workloads, name, seed, sizes)
    passes: list[Pass] = []
    start = perf_counter()
    # stop before a pass of the average length would end after ``seconds``
    while not passes or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        gc.collect()
        passes.append(run_pass(workloads, items))
    return end_to_end(setup_s, passes, items), passes


def measure_traced(workloads, name: str, seed: int, sizes=None):
    """Traced run: one untraced pass, then one traced pass whose spans give
    the per-layer metrics, in unscaled seconds; the difference of the two
    passes at reference speed is the tracing overhead.  Also returns the passes and whether every self time
    stayed within its busy time."""
    import spans

    _, items = setup(workloads, name, seed, sizes)
    gc.collect()
    plain = run_pass(workloads, items)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        gc.collect()
        traced = run_pass(workloads, items, tracer)
    finally:
        restore()
    metrics, consistent = tracer.layer_metrics()
    metrics.update(spans.line_counts(SRC / "symbic"))
    metrics["trace.overhead_s"] = traced.solve_s - plain.solve_s
    tracer.write(TRACE_DIR / f"{name}-seed{seed}.tsv.gz")
    if not consistent:
        print("trace: a self time exceeds its busy time", file=sys.stderr)
    metrics = {key: metrics[key] for key, _ in spans.PER_LAYER}
    return metrics, [plain, traced], consistent


def report(name: str, metrics: dict, units: dict, passes: list[Pass], trace_ok: bool) -> dict:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {name}: {len(passes)} passes, {attempted} items, {failed} failed")
    for key, value in metrics.items():
        print(f"  {key:44s} {value:>16.6g} {units[key]}")
    return {
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "symbic" / "__init__.py").is_file():
        print(f"no symbic package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import symbic.cli  # noqa: F401  (fills the byte-code cache before set-up is timed)
    import workloads

    if args.trace:
        import spans

        metrics, passes, trace_ok = measure_traced(workloads, args.workload, args.seed)
        units = dict(spans.PER_LAYER)
    else:
        metrics, passes = measure(workloads, args.workload, args.seed, args.seconds)
        trace_ok, units = True, dict(END_TO_END)
    print(json.dumps(report(args.workload, metrics, units, passes, trace_ok)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
