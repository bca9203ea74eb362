"""End-to-end host-time benchmark of the ``repro`` simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pause-grid --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload with the per-layer wrappers of ``layers.py`` installed and
reports the per-layer metrics.  Every run checks the program's outputs
and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional

from calib import Calibrator
from common import PROGRAM_CPU, SCALE, Span, child_command, child_env, load_pins, pin_load, run_child
from grids import GRIDS, GridPass, grid_pass
from served import ServedCycle, ServerStartError, probe_setup, served_cycle
from stats import (
    LAYER_METRICS,
    OpLedger,
    count_metrics,
    count_mismatches,
    layer_metrics,
    merge_snapshots,
    percentile,
    tail_percentile,
)

WORKLOADS = ("pause-grid", "dacapo-overhead", "served-sessions")

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_wall_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: set-up samples taken per run (topped up with import-only probes)
SETUP_SAMPLES = 5


class Outcome:
    """Metrics of one run plus what its checks found.  ``metrics`` are
    at the reference speed of :mod:`calib`; ``host`` are the same
    metrics in plain host time, for the report only."""

    def __init__(self) -> None:
        self.ledger = OpLedger()
        self.metrics: Dict[str, float] = {}
        self.host: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.problems: List[str] = []
        self.notes: List[str] = []


class HostClock:
    """Scales nothing: a span's plain host time."""

    @staticmethod
    def scale(a: float, b: float) -> float:
        return b - a


@dataclass
class Spans:
    """What one untraced run timed, before it is reduced to metrics."""

    #: one cold run per pass, with the ops it completed
    cold: List[Span]
    jobs: List[int]
    #: every warm re-run (or warm replay), pooled across the passes
    warm: List[Span]
    #: every op of the warm re-runs, pooled across the passes
    ops: List[Span]
    setup: List[Span]
    peak_rss_mb: List[float]


def reduce_spans(outcome: Outcome, spans: Spans, calibration) -> None:
    """The end-to-end metrics: medians over the passes for the cold
    run, over the pooled warm re-runs and ops for the warm path."""
    for target, clock in ((outcome.metrics, calibration), (outcome.host, HostClock)):
        walls = [clock.scale(*span) for span in spans.cold]
        latencies_ms = [clock.scale(*span) * 1e3 for span in spans.ops]
        target.update(
            setup_s=median(clock.scale(*span) for span in spans.setup),
            wall_s=median(walls),
            warm_wall_s=median(clock.scale(*span) for span in spans.warm),
            jobs_per_s=median(jobs / wall for jobs, wall in zip(spans.jobs, walls)),
            latency_p50_ms=median(latencies_ms),
            latency_p95_ms=percentile(latencies_ms, 95),
            peak_rss_mb=median(spans.peak_rss_mb),
        )
    outcome.samples.update(
        setup_s=len(spans.setup),
        wall_s=len(spans.cold),
        warm_wall_s=len(spans.warm),
        jobs_per_s=len(spans.cold),
        latency_p50_ms=len(spans.ops),
        latency_p95_ms=len(spans.ops),
        peak_rss_mb=len(spans.peak_rss_mb),
    )
    tail = tail_percentile([calibration.scale(*span) * 1e3 for span in spans.ops])
    if tail is None:
        outcome.notes.append("latency: %d samples; no percentile has 10 beyond it" % len(spans.ops))
    else:
        outcome.notes.append(
            "latency: highest percentile with >=10 samples beyond: p%g = %.3f ms (n=%d)" % tail
        )


def _keep_going(started: float, durations: List[float], seconds: float) -> bool:
    """Start another pass only if one more of the longest so far still
    fits in the measuring window."""
    return time.monotonic() - started + max(durations) <= seconds


def _setup_spans(outcome: Outcome, spans: List[Span], workdir, env, served: bool) -> List[Span]:
    """The set-up spans of a run, topped up with set-up probes."""
    spans = list(spans)
    while len(spans) < SETUP_SAMPLES:
        if served:
            try:
                spans.append(probe_setup(workdir, env))
            except ServerStartError as exc:
                outcome.problems.append(str(exc))
                break
        else:
            probe = run_child(child_command("probe", pin=True), workdir, env)
            if not probe.ok:
                outcome.problems.append("set-up probe failed")
                break
            spans.append(probe.setup_span)
    return spans


def _finish(outcome: Outcome, spans: Spans, calibrator: Calibrator) -> Outcome:
    calibration = calibrator.finish()
    if calibration is None:
        outcome.problems.append("the calibrator took no slices")
    elif not outcome.problems:
        reduce_spans(outcome, spans, calibration)
    return outcome


# ------------------------------------------------------------------ grids

def _grid_passes(
    name, seed, seconds, workdir, env, pins, outcome, trace=False, once=False
) -> List[GridPass]:
    spec = GRIDS[name]
    expected = pins["grids"].get(spec.pin_key, {}).get(str(seed))
    if expected is None:
        outcome.notes.append("seed %d has no pinned digests: outputs checked for consistency only" % seed)
    passes: List[GridPass] = []
    started = time.monotonic()
    while True:
        result = grid_pass(spec, seed, workdir, env, expected, trace=trace)
        passes.append(result)
        outcome.ledger.record(result.ok, spec.cells * 2)
        outcome.problems.extend(result.problems)
        if expected is None and result.digests:
            expected = result.digests
            outcome.notes.append(
                "digests: stdout %s json %s" % (expected["stdout_sha256"], expected["json_sha256"])
            )
        if once or not result.ok or not _keep_going(
            started, [p.duration_s for p in passes], seconds
        ):
            return passes


def measure_grid(name, seed, seconds, workdir, env, pins, calibrator) -> Outcome:
    outcome = Outcome()
    passes = _grid_passes(name, seed, seconds, workdir, env, pins, outcome)
    if outcome.problems:
        return outcome
    spans = Spans(
        cold=[p.cold for p in passes],
        jobs=[GRIDS[name].cells] * len(passes),
        warm=[span for p in passes for span in p.warm],
        ops=[span for p in passes for span in p.warm_cells],
        setup=_setup_spans(outcome, [s for p in passes for s in p.setup], workdir, env, False),
        peak_rss_mb=[p.peak_rss_mb for p in passes],
    )
    return _finish(outcome, spans, calibrator)


def trace_grid(name, seed, seconds, workdir, env, pins) -> Outcome:
    outcome = Outcome()
    runs = []
    for trace in (False, True, True):
        (result,) = _grid_passes(
            name, seed, seconds, workdir, env, pins, outcome, trace=trace, once=True
        )
        if not result.ok:
            return outcome
        runs.append(result)
    baseline, traced = runs[0], runs[1:]
    layers = [layer_metrics(merge_snapshots(r.traces)) for r in traced]
    overhead = median([HostClock.scale(*r.cold) for r in traced]) / HostClock.scale(*baseline.cold)
    _finish_trace(outcome, layers, overhead)
    return outcome


# ----------------------------------------------------------------- served

def _served_cycles(seed, seconds, workdir, env, pins, outcome, trace=False, once=False):
    cycles: List[ServedCycle] = []
    started = time.monotonic()
    while True:
        try:
            cycle = served_cycle(seed, workdir, env, pins["served"], outcome.ledger, trace=trace)
        except ServerStartError as exc:
            outcome.problems.append(str(exc))
            outcome.ledger.record(False)
            return cycles
        cycles.append(cycle)
        for replay in cycle.replays:
            outcome.problems.extend(replay.problems)
        if once or not _keep_going(started, [c.duration_s for c in cycles], seconds):
            return cycles


def measure_served(seed, seconds, workdir, env, pins, calibrator) -> Outcome:
    outcome = Outcome()
    cycles = _served_cycles(seed, seconds, workdir, env, pins, outcome)
    if outcome.problems:
        return outcome
    warm = [replay for c in cycles for replay in c.warm]
    spans = Spans(
        cold=[c.cold.span for c in cycles],
        jobs=[c.cold.jobs_completed for c in cycles],
        warm=[replay.span for replay in warm],
        ops=[span for replay in warm for span in replay.requests],
        setup=_setup_spans(outcome, [c.setup for c in cycles], workdir, env, True),
        peak_rss_mb=[c.report["peak_rss_mb"] for c in cycles],
    )
    return _finish(outcome, spans, calibrator)


def trace_served(seed, seconds, workdir, env, pins) -> Outcome:
    outcome = Outcome()
    runs = []
    for trace in (False, True, True):
        cycles = _served_cycles(seed, seconds, workdir, env, pins, outcome, trace=trace, once=True)
        if not cycles:
            return outcome
        runs.extend(cycles)
    if any(run.report is None or "trace" not in run.report for run in runs[1:]):
        outcome.problems.append("traced server sent no layer report")
        return outcome
    layers = [layer_metrics(run.report["trace"]) for run in runs[1:]]
    overhead = median([HostClock.scale(*run.cold.span) for run in runs[1:]]) / HostClock.scale(
        *runs[0].cold.span
    )
    _finish_trace(outcome, layers, overhead)
    return outcome


def _finish_trace(outcome: Outcome, layers: List[Dict[str, float]], overhead: float) -> None:
    """Counts from the first traced run, which the second must repeat
    exactly; times as the mean of the two."""
    first, second = layers
    mismatched = count_mismatches(first, second)
    for name in mismatched:
        outcome.problems.append(
            "count %s differs between traced runs: %r != %r" % (name, first[name], second[name])
        )
        outcome.ledger.record(False)
    counts = count_metrics()
    for name in first:
        exact = name in counts
        outcome.metrics[name] = first[name] if exact else (first[name] + second[name]) / 2
        outcome.samples[name] = 2
    outcome.metrics["trace.overhead_ratio"] = overhead
    outcome.samples["trace.overhead_ratio"] = 2


# ----------------------------------------------------------------- report

def environment(src: str, seed: int, backend: str) -> Dict[str, object]:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=src, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "n/a"
    except (OSError, subprocess.SubprocessError):
        commit = "n/a"
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": backend,
        "scale": SCALE,
        "seed": seed,
        "cpu": "n/a" if PROGRAM_CPU is None else PROGRAM_CPU,
    }


def _shown(value) -> str:
    if value is None:
        return "n/a"
    return "%d" % value if isinstance(value, int) else "%.6g" % value


def print_report(workload: str, env_info, outcome: Outcome, units: Dict[str, str]) -> None:
    print("perfbench %s: %s" % (workload, " ".join("%s=%s" % kv for kv in env_info.items())))
    for note in outcome.notes:
        print("  " + note)
    for problem in outcome.problems:
        print("  FAILED CHECK: " + problem)
    if outcome.host:
        print("  value: at the reference speed of calib.py; host: plain host time")
    print(
        "  %-26s %16s  %-6s %7s %16s"
        % ("metric", "value", "unit", "samples", "host" if outcome.host else "")
    )
    for name, unit in units.items():
        print(
            "  %-26s %16s  %-6s %7d %16s"
            % (
                name,
                _shown(outcome.metrics.get(name)),
                unit,
                outcome.samples.get(name, 0),
                _shown(outcome.host.get(name)) if outcome.host else "",
            )
        )
    if outcome.ledger.attempted:
        print(
            "  %-26s %16.6g  %-6s attempted=%d failed=%d"
            % ("error_rate", outcome.ledger.error_rate, "ratio",
               outcome.ledger.attempted, outcome.ledger.failed)
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the repro simulator.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so every child is stopped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no repro package under %s; run from a checkout root" % src, file=sys.stderr)
        return 2
    env = child_env(src)
    os.makedirs(os.path.join(root, ".perfbench-work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".perfbench-work"))
    try:
        probe = run_child(child_command("probe"), workdir, env)
        if not probe.ok:
            print("perfbench: the program does not import:\n%s" % probe.stderr, file=sys.stderr)
            return 3
        pins = load_pins()
        served = args.workload == "served-sessions"
        if served:
            pin_load()
        if args.trace:
            units = LAYER_METRICS
            if served:
                outcome = trace_served(args.seed, args.seconds, workdir, env, pins)
            else:
                outcome = trace_grid(args.workload, args.seed, args.seconds, workdir, env, pins)
        else:
            units = END_TO_END
            with Calibrator(PROGRAM_CPU) as calibrator:
                if served:
                    outcome = measure_served(
                        args.seed, args.seconds, workdir, env, pins, calibrator
                    )
                else:
                    outcome = measure_grid(
                        args.workload, args.seed, args.seconds, workdir, env, pins, calibrator
                    )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".perfbench-work"))
        except OSError:
            pass

    print_report(args.workload, environment(src, args.seed, probe.report["backend"]), outcome, units)
    result = result_document(outcome, units)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def result_document(outcome: Outcome, units: Dict[str, str]) -> dict:
    """The closing JSON line.  A run is correct only if every check
    passed and every metric was measured; a run that attempted nothing
    counts as one failed op."""
    correct = not outcome.problems and all(name in outcome.metrics for name in units)
    return {
        "correct": correct,
        "attempted": max(1, outcome.ledger.attempted),
        "failed": outcome.ledger.failed if outcome.ledger.attempted else 1,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in outcome.metrics
        },
    }


if __name__ == "__main__":
    sys.exit(main())
