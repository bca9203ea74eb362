"""The grid workloads: ``pause-grid`` and ``dacapo-overhead``, each a
``rolp-bench`` command run in fresh children.

One *pass* is a cold run of the grid, then warm re-runs, which find
every result already in the disk cache and so simulate nothing.  The
cold child runs ``--no-cache`` and stores its results after its timed
run; then :data:`WARM_PROCESSES` fresh children each run the same
command with ``--cache-dir`` again and again for :data:`WARM_SECONDS`,
each time through a new ``Runner`` that loads every cell from disk.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import ChildResult, Span, child_command, run_child

#: the DaCapo benchmarks of the Figure 6 grid the benchmark runs: the
#: four whose traced host time has the largest share in
#: ``ExecutionContext.call`` (see README.md).  The whole 13-benchmark
#: grid takes about 30 s per pass on two cores, too long for one run.
FIG6_BENCHMARKS = ("avrora", "fop", "jython", "tradebeans")

#: Figure 6 configurations per benchmark: unprofiled G1 + four call
#: profiling modes
FIG6_CONFIGS = 5

#: the result cache of a pass, inside its scratch directory
CACHE_DIR = "cache"

#: seconds of warm re-runs per warm process.  One re-run takes 2 to
#: 11 ms once the process is warm, so its median rests on hundreds.
WARM_SECONDS = 4.0

#: warm processes per pass, each re-running for :data:`WARM_SECONDS`.
#: The cell loads of one process can read a few per cent slower or
#: faster than those of the next, all through its life.
WARM_PROCESSES = 2

#: warm re-runs per traced pass: a fixed number, so that the counts of
#: two traced passes can be compared
TRACED_WARM_REPEATS = 5


@dataclass(frozen=True)
class GridSpec:
    argv: Tuple[str, ...]
    cells: int
    #: key of the pinned digests (grids with the same cells share one)
    pin_key: str


GRIDS: Dict[str, GridSpec] = {
    "pause-grid": GridSpec(("fig8",), 24, "fig8"),
    "dacapo-overhead": GridSpec(
        ("fig6", "--benchmarks") + FIG6_BENCHMARKS,
        FIG6_CONFIGS * len(FIG6_BENCHMARKS),
        "fig6",
    ),
}


def grid_argv(spec: GridSpec, seed: int, cached: bool) -> List[str]:
    cache = ["--cache-dir", CACHE_DIR] if cached else ["--no-cache"]
    return list(spec.argv) + [
        "--jobs", "1", *cache, "--seed", str(seed), "--json-dir", "json",
    ]


@dataclass
class GridPass:
    """One cold run + warm re-runs and what their checks found."""

    ok: bool
    #: spans are (start, end) in ``time.monotonic`` seconds
    setup: List[Span] = field(default_factory=list)
    cold: Span = (0.0, 0.0)
    #: one per warm re-run
    warm: List[Span] = field(default_factory=list)
    #: the per-cell loads of every warm re-run, pooled
    warm_cells: List[Span] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    digests: Optional[Dict[str, str]] = None
    problems: List[str] = field(default_factory=list)
    traces: List[dict] = field(default_factory=list)
    #: host time the pass took, children's set-up included
    duration_s: float = 0.0


def cell_spans(run: dict) -> List[Span]:
    """Per-cell spans: between consecutive per-cell progress lines of
    the runner.  The first cell is left out, because its span from the
    start of the command also holds the command's own set-up."""
    stamps = list(run["cell_done"])
    return list(zip(stamps, stamps[1:]))


DIGEST_KEYS = ("stdout_sha256", "json_sha256")


def check_digests(cold: dict, warm: List[dict], expected: Dict[str, str]) -> List[str]:
    """Every run of a pass must reproduce the expected digests: the
    pinned ones, or those of the run's first pass when the seed has no
    pin."""
    problems = []
    for key in DIGEST_KEYS:
        for label, run in [("cold", cold)] + [("warm", run) for run in warm]:
            if run[key] != expected[key]:
                problems.append(
                    "%s %s %s != expected %s"
                    % (label, key, run[key][:12], expected[key][:12])
                )
    return problems


def _check_run(run: dict, spec: GridSpec, warm: bool, problems: List[str]) -> None:
    label = "warm" if warm else "cold"
    if run["status"] != 0:
        problems.append("%s run exited %r" % (label, run["status"]))
    summary = run["runner"] or {}
    want = 0 if warm else spec.cells
    if summary.get("simulations") != want:
        problems.append(
            "%s run simulated %r cells, expected %d"
            % (label, summary.get("simulations"), want)
        )


def grid_pass(
    spec: GridSpec,
    seed: int,
    workdir: str,
    env: Dict[str, str],
    expected: Optional[Dict[str, str]],
    trace: bool = False,
) -> GridPass:
    """Run one pass in a fresh scratch directory (so its warm re-runs
    find only the cache its cold run stored) and check its outputs."""
    started = time.monotonic()
    scratch = tempfile.mkdtemp(prefix="pass-", dir=workdir)
    try:
        cold = child_command(
            "grid", grid_argv(spec, seed, False), store_cache=CACHE_DIR, trace=trace, pin=True
        )
        warm = child_command(
            "grid", grid_argv(spec, seed, True), trace=trace, pin=True,
            **(dict(repeat=TRACED_WARM_REPEATS) if trace else dict(for_s=WARM_SECONDS)),
        )
        commands = [cold] + [warm] * WARM_PROCESSES
        children: List[ChildResult] = []
        for command in commands:
            children.append(run_child(command, scratch, env))
            if not children[-1].ok:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [c for c in children if not c.ok]
    if failed:
        tail = failed[0].stderr.strip().splitlines()[-3:]
        return GridPass(ok=False, problems=["child failed: %s" % " | ".join(tail)])
    (cold,) = children[0].report["runs"]
    warm = [run for child in children[1:] for run in child.report["runs"]]
    result = GridPass(ok=True)
    _check_run(cold, spec, False, result.problems)
    for run in warm:
        _check_run(run, spec, True, result.problems)
    result.digests = {k: cold[k] for k in DIGEST_KEYS}
    result.problems.extend(check_digests(cold, warm, expected or result.digests))
    result.ok = not result.problems
    result.setup = [c.setup_span for c in children]
    result.cold = (cold["start"], cold["end"])
    result.warm = [(run["start"], run["end"]) for run in warm]
    result.warm_cells = [span for run in warm for span in cell_spans(run)]
    result.duration_s = time.monotonic() - started
    # the process that simulates: the cold child
    result.peak_rss_mb = children[0].report["peak_rss_mb"]
    result.traces = [c.report["trace"] for c in children if "trace" in c.report]
    return result
