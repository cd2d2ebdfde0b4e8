"""Layered benchmark for litmusdiff.

    python3 perfbench/run.py --workload ladder-asm --seed 1 --seconds 45 --trace 0

Runs one workload (mp-corpus or ladder-asm) as a closed loop, one
client in one process with one thread, against the package under src/
of the checkout this file belongs to.  The last line of output is one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 an untraced
and a traced measurement run back to back and the metrics are the traced
run's per-layer numbers plus the tracing overhead.  NOTES.md defines every
metric.  Exit code 0 means every result matched its pinned entry, 1 that
some did not, 2 that the run could not start.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import calibrate
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, outcome_lists

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "litmusdiff"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
# Time between two runs of the reference loop (calibrate.py), at least,
# and the time either side of an op within which the loop times that scale
# it were taken (SpeedScale).
CALIBRATE_EVERY_S = 0.1
WINDOW_S = 1.0
# An op at least this long is followed by a sweep over the short inputs,
# those whose warm-up ops all took less than SHORT_S (measure).
SWEEP_AFTER_S = 0.5
SHORT_S = 0.25
CANDIDATES = "execution.enumerate_candidates"


def import_library() -> SimpleNamespace:
    """Import litmusdiff afresh from src/, dropping any earlier import, so
    that each set-up pays for the import again."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} came from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(pkg=pkg, cli=importlib.import_module(PACKAGE + ".cli"))


class Checker:
    """Checks every op result; counts failed ops and names the inputs that
    failed or show a known model gap."""

    def __init__(self, workload):
        self.workload = workload
        self.first: dict[str, str] = {}
        self.problems: dict[str, str | None] = {}
        self.attempted = self.failed = 0
        self.failures: dict[str, str] = {}
        self.gaps: dict[str, str] = {}

    def record(self, name: str, result: str | None, error: Exception | None):
        self.attempted += 1
        problem = self._problem(name, result, error)
        if problem is not None:
            self.fail(name, problem)
            return
        gap = self.workload.gap(name)
        if gap is not None:
            self.gaps[name] = gap

    def _problem(self, name, result, error):
        if error is not None:
            return f"raised {error!r}"
        if self.first.setdefault(name, result) != result:
            return "result differs from an earlier run of the same input"
        if name not in self.problems:
            self.problems[name] = self.workload.check(name, result)
        return self.problems[name]

    def fail(self, name: str, problem: str):
        self.failed += 1
        self.failures.setdefault(name, problem)

    def agree_share(self) -> float:
        """Share of the distinct inputs that never failed and show no known
        gap: 1 - (failing or gap inputs) / inputs."""
        return 1 - len(self.failures.keys() | self.gaps.keys()) / len(self.first)


class SpeedScale:
    """Times the reference loop (calibrate.py) between ops and scales op
    times to the reference speed.  The loop runs at the start, after an op
    once ``CALIBRATE_EVERY_S`` has passed since it last ran, and at the
    end.  An op time is multiplied by ``calibrate.REFERENCE_S`` over the
    median of the loop times taken within ``WINDOW_S`` of the op, and at
    least those just before and just after it."""

    def __init__(self):
        self.loops: list[tuple[float, float]] = []  # (end, seconds)
        self.times: list[tuple[str, float, float]] = []  # (key, start, end)
        self.tick(force=True)

    def tick(self, force=False):
        if force or time.perf_counter() - self.loops[-1][0] >= CALIBRATE_EVERY_S:
            seconds = calibrate.loop_seconds()
            self.loops.append((time.perf_counter(), seconds))

    def add(self, key: str, start: float, seconds: float):
        self.times.append((key, start, start + seconds))
        self.tick()

    def loop_times(self) -> list[float]:
        return [seconds for _, seconds in self.loops]

    def scaled(self) -> dict[str, list[float]]:
        """Every time added, scaled, by key in the order added."""
        self.tick(force=True)
        ends = [end for end, _ in self.loops]
        loops = self.loop_times()
        out: dict[str, list[float]] = {}
        for key, start, end in self.times:
            first = min(bisect.bisect_left(ends, start - WINDOW_S),
                        bisect.bisect_left(ends, start) - 1)
            last = max(bisect.bisect_right(ends, end + WINDOW_S),
                       bisect.bisect_right(ends, end) + 1)
            loop = statistics.median(loops[max(first, 0):last])
            out.setdefault(key, []).append(
                (end - start) * calibrate.REFERENCE_S / loop)
        return out


def run_op(op):
    """(seconds, canonical result, error) of one timed call."""
    start = time.perf_counter()
    try:
        raw = op.call()
    except Exception as exc:  # counted and named as a failed op
        return time.perf_counter() - start, None, exc
    elapsed = time.perf_counter() - start
    return elapsed, op.canonical(raw), None


def set_up(workload, seed, workdir, repeats):
    """Import, generate and write the inputs, and run one op; ``repeats``
    times, with the reference loop run between them as between ops.
    Returns the last set-up's library and ops, and every set-up time as
    measured and scaled."""
    times = []
    scale = SpeedScale()
    for i in range(repeats):
        start = time.perf_counter()
        lib = import_library()
        ops = workload.setup(lib, seed, workdir / f"setup{i}")
        run_op(ops[0])
        times.append(time.perf_counter() - start)
        scale.add("setup", start, times[-1])
    return lib, ops, times, scale.scaled()["setup"]


def warm_up(workload, ops, checker):
    """Run every input twice under the tracer's counters.  Both rounds must
    give the same result, outcome sets and candidate count, and the outcome
    sets must equal the pinned ones where the workload pins them.  Returns
    the candidate count of each input and the slowest of its two op
    times."""
    tracer = Tracer()
    rounds = []
    slowest = {op.name: 0.0 for op in ops}
    with tracer.installed():
        for _ in range(2):
            seen = {}
            for op in ops:
                candidates = tracer.counts[CANDIDATES]
                first_set = len(tracer.outcome_sets)
                elapsed, result, error = run_op(op)
                checker.record(op.name, result, error)
                slowest[op.name] = max(slowest[op.name], elapsed)
                seen[op.name] = (tracer.counts[CANDIDATES] - candidates,
                                 outcome_lists(tracer.outcome_sets[first_set:]))
            rounds.append(seen)
    for op in ops:
        if rounds[0][op.name] != rounds[1][op.name]:
            checker.fail(op.name, "the two warm-up rounds differ in outcome "
                                  "sets or candidate count")
        pinned = workload.pinned_outcome_sets(op.name)
        if pinned is not None and rounds[0][op.name][1] != pinned:
            checker.fail(op.name, "outcome sets differ from the pinned ones")
    return {name: count for name, (count, _) in rounds[0].items()}, slowest


def measure(ops, seconds, checker, short=(), whole_passes=False):
    """Passes over the inputs for ``seconds``, at least one whole pass.  A
    pass runs every input once, in order, and after each op that took at
    least ``SWEEP_AFTER_S`` runs every input of ``short`` once more, so that
    short inputs are timed at many moments of the run and not only once per
    pass.  The run stops after the first op and its sweep that end after
    ``seconds``; with ``whole_passes`` it makes whole passes only, until the
    next would end after ``seconds``, as the traced run's per-pass figures
    need.  Returns each input's op times as measured and as scaled to the
    reference speed, the reference loop times, and the number of whole
    passes."""
    gc.collect()
    raw = {op.name: [] for op in ops}
    scale = SpeedScale()

    def timed(op) -> float:
        began = time.perf_counter()
        elapsed, result, error = run_op(op)
        raw[op.name].append(elapsed)
        scale.add(op.name, began, elapsed)
        checker.record(op.name, result, error)
        return elapsed

    def done():
        return SimpleNamespace(raw=raw, scaled=scale.scaled(),
                               loops=scale.loop_times()), passes

    start = time.perf_counter()
    passes = 0
    while True:
        for op in ops:
            if timed(op) >= SWEEP_AFTER_S:
                for short_op in short:
                    timed(short_op)
            if (passes and not whole_passes
                    and time.perf_counter() - start >= seconds):
                return done()
        passes += 1
        wall = time.perf_counter() - start
        if wall >= seconds or (whole_passes
                               and wall * (passes + 1) / passes > seconds):
            return done()


def input_medians(samples) -> list[float]:
    """Each input's median op time in the run."""
    return [statistics.median(times) for times in samples.values()]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values, p) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def time_metrics(per_input) -> dict[str, float]:
    return {
        "ops_per_s": len(per_input) / sum(per_input),
        "op_p50_ms": statistics.median(per_input) * 1e3,
        "op_p99_ms": percentile(per_input, 99) * 1e3,
        "geomean_ms": statistics.geometric_mean(per_input) * 1e3,
    }


def end_to_end(samples, setup_scaled, checker):
    """Times are scaled to the reference speed (calibrate.py): on a shared
    2-vCPU virtual machine the same code runs up to 1.7 times slower in
    spells of under a second to minutes, which the reference loop, timed
    between ops, follows (NOTES.md).  Op-time metrics are taken over each
    input's median scaled op time in the run."""
    metrics = {"setup_s": (statistics.median(setup_scaled), "s")}
    for name, value in time_metrics(input_medians(samples.scaled)).items():
        metrics[name] = (value, "1/s" if name == "ops_per_s" else "ms")
    metrics["agree_share"] = (checker.agree_share(), "share")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def sample_summary(samples) -> list[str]:
    """Figures printed for reference and not reported as metrics: the same
    op-time metrics from unscaled times, by input median and by input
    minimum, and the spread of the reference loop's times."""
    n = sum(len(times) for times in samples.raw.values())
    lines = [f"{n} op samples, {len(samples.loops)} reference loop runs "
             f"(fastest {min(samples.loops) * 1e3:.4f} ms, median "
             f"{statistics.median(samples.loops) * 1e3:.4f} ms, slowest "
             f"{max(samples.loops) * 1e3:.4f} ms)"]
    for label, per_input in (
            ("unscaled, input medians", input_medians(samples.raw)),
            ("unscaled, input minima", [min(t) for t in samples.raw.values()])):
        lines.append(f"{label}: " + ", ".join(
            f"{name} {value:.6g}"
            for name, value in time_metrics(per_input).items()))
    return lines


def traced(workload, lib, ops, seed, seconds, checker, workdir, lines):
    """Untraced then traced passes, half the time each, checked by the
    same checker so that a traced result differing from the untraced one
    fails; then one traced input generation for testgen."""
    plain, plain_passes = measure(ops, seconds / 2, checker, whole_passes=True)
    tracer = Tracer()
    with tracer.installed():
        spans, passes = measure(ops, seconds / 2, checker,
                                whole_passes=True)
    generation = Tracer()
    with generation.installed():
        workload.setup(lib, seed, workdir / "traced")
    metrics = layer_metrics(tracer, passes)
    metrics["testgen.generate_ms"] = layer_metrics(
        generation, 1)["testgen.generate_ms"]
    traced_s = sum(input_medians(spans.scaled))
    plain_s = sum(input_medians(plain.scaled))
    metrics["tracing.overhead_share"] = (traced_s / plain_s - 1, "share")
    lines.append(f"untraced: {plain_passes} passes, sum of median scaled op "
                 f"times {plain_s:.6f} s; traced: {passes} passes, "
                 f"{traced_s:.6f} s")
    lines.append("span tree per traced pass (calls, total and self seconds):")
    lines.extend(tracer.call_tree(passes))
    return metrics


def run(workload, seed, seconds, trace, workdir):
    """Set up, warm up and measure one workload; returns the lines to print
    and the result object."""
    checker = Checker(workload)
    lib, ops, setup_times, setup_scaled = set_up(
        workload, seed, workdir, 1 if trace else SETUP_REPEATS)
    candidates, slowest = warm_up(workload, ops, checker)
    lines = [f"workload={workload.name} seed={seed} seconds={seconds} trace={trace} "
             f"inputs={len(ops)}",
             "set-up times: " + " ".join(f"{t:.6f}" for t in setup_times),
             "scaled: " + " ".join(f"{t:.6f}" for t in setup_scaled),
             f"warm-up: every input run twice; candidates per pass "
             f"{sum(candidates.values())}"]
    if len(ops) <= 32:
        lines.extend(f"  candidates {op}: {n}" for op, n in candidates.items())
    if trace:
        metrics = traced(workload, lib, ops, seed, seconds, checker, workdir,
                         lines)
    else:
        short = [op for op in ops if slowest[op.name] < SHORT_S]
        samples, passes = measure(ops, seconds, checker, short)
        metrics = end_to_end(samples, setup_scaled, checker)
        lines.append(f"measured: {passes} whole passes over {len(ops)} "
                     f"inputs, {len(short)} of them short")
        lines.extend(sample_summary(samples))
    lines.append(f"checked ops: {checker.attempted} attempted, "
                 f"{checker.failed} failed")
    lines.extend(f"known gap {op}: {gap}" for op, gap in checker.gaps.items())
    lines.extend(f"FAILED {op}: {problem}"
                 for op, problem in checker.failures.items())
    lines.extend(f"{metric} = {value:.6g} {unit}"
                 for metric, (value, unit) in metrics.items())
    summary = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }
    return lines, summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="draws mp-corpus's tests; ladder-asm is a "
                             "fixed set and only records it")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        lines, summary = run(WORKLOADS[args.workload](), args.seed,
                             args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
