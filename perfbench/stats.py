"""The benchmark's own arithmetic: percentiles, the op ledger behind the
error rate, and the per-layer metrics derived from a ``layers.py``
snapshot.  Nothing here runs the program, so ``perfbench/tests`` can pin
it all down.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

#: samples a percentile needs beyond it before it is reported as a tail
MIN_BEYOND = 10

#: percentiles considered for the tail, highest first
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank
    percentile ``q``."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least :data:`MIN_BEYOND` samples
    beyond it, as ``(q, value, sample count)``; ``None`` when even the
    median lacks them."""
    for q in TAIL_CANDIDATES:
        if beyond(len(values), q) >= MIN_BEYOND:
            return q, percentile(values, q), len(values)
    return None


class OpLedger:
    """Attempted and failed ops of one benchmark run.  An op that never
    got a valid answer (refused, timed out, wrong bytes) is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    def record_request(self, status: Optional[int], matches: bool = True) -> None:
        """``status`` is ``None`` when no reply arrived; ``matches`` says
        whether the reply equalled its expectation."""
        self.record(status is not None and 200 <= status < 300 and matches)

    @property
    def error_rate(self) -> float:
        if self.attempted <= 0:
            raise ValueError("error rate of no attempts")
        return self.failed / self.attempted


# ------------------------------------------------------------ per-layer metrics

#: per-layer metrics: name -> unit.  Names ending in a count unit must
#: repeat exactly between two traced runs of the same seed.
LAYER_METRICS: Dict[str, str] = {
    "workloads.ops": "count",
    "workloads.self_s": "s",
    "runtime.calls": "count",
    "runtime.allocs": "count",
    "runtime.jit_compiles": "count",
    "runtime.self_s": "s",
    "runtime.ns_per_call": "ns",
    "runtime.ns_per_alloc": "ns",
    "gc.allocs": "count",
    "gc.collections": "count",
    "gc.collect_s": "s",
    "gc.self_s": "s",
    "heap.allocs": "count",
    "heap.region_claims": "count",
    "heap.region_releases": "count",
    "heap.self_s": "s",
    "core.contexts_resolved": "count",
    "core.survivor_batches": "count",
    "core.gc_ends": "count",
    "core.self_s": "s",
    "telemetry.self_s": "s",
    "bench.cells": "count",
    "bench.simulations": "count",
    "bench.memo_hit_ratio": "ratio",
    "bench.cache_hit_ratio": "ratio",
    "bench.cache_load_s": "s",
    "bench.cache_store_s": "s",
    "bench.cell_p50_s": "s",
    "bench.cell_p90_s": "s",
    "bench.render_s": "s",
    "server.requests": "count",
    "server.handle_ms_p50": "ms",
    "server.queue_wait_ms_p50": "ms",
    "server.batch_run_ms_p50": "ms",
    "server.batch_size_mean": "count",
    "server.memo_hit_ratio": "ratio",
    "server.rejected": "count",
    "trace.overhead_ratio": "ratio",
}

LAYERS = ("workloads", "runtime", "gc", "heap", "core", "telemetry", "bench")


def count_metrics() -> List[str]:
    """Per-layer metrics that are exact counts (``batch_size_mean`` is
    a mean over timing-dependent batches, so it is not one)."""
    return [
        name
        for name, unit in LAYER_METRICS.items()
        if unit == "count" and name != "server.batch_size_mean"
    ]


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Sum tracer snapshots of several processes of one pass."""
    merged: dict = {"entries": {}, "groups": {}, "samples": {}, "extra": {}}
    for snap in snapshots:
        for kind in ("entries", "groups"):
            for key, (count, secs) in snap[kind].items():
                slot = merged[kind].setdefault(key, [0, 0.0])
                slot[0] += count
                slot[1] += secs
        for key, values in snap["samples"].items():
            merged["samples"].setdefault(key, []).extend(values)
        for key, value in snap["extra"].items():
            merged["extra"][key] = merged["extra"].get(key, 0.0) + value
    return merged


def _p(values: Sequence[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def layer_metrics(snap: dict) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_ratio`` from one
    (merged) tracer snapshot.  Layers off a workload's path read 0."""
    entries = snap["entries"]
    groups = snap["groups"]
    samples = snap["samples"]
    extra = snap["extra"]

    def count(key: str) -> int:
        return int(entries.get(key, (0, 0.0))[0])

    def self_s(key: str) -> float:
        return float(entries.get(key, (0, 0.0))[1])

    def layer_self(layer: str) -> float:
        return sum(
            secs for key, (_, secs) in entries.items() if key.split(":")[0] == layer
        )

    def group_s(group: str) -> float:
        return float(groups.get(group, (0, 0.0))[1])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls = count("runtime:call")
    allocs = count("runtime:alloc")
    requested = extra.get("bench.requested", 0.0)
    new_cells = extra.get("bench.new_cells", 0.0)
    simulations = extra.get("bench.simulations", 0.0)
    batch_sizes = samples.get("server.batch_size", [])
    served = bool(samples.get("server.handle"))
    metrics: Dict[str, float] = {
        "workloads.ops": count("workloads:run_op"),
        "runtime.calls": calls,
        "runtime.allocs": allocs,
        "runtime.jit_compiles": count("runtime:compile"),
        "runtime.ns_per_call": ratio(self_s("runtime:call"), calls) * 1e9,
        "runtime.ns_per_alloc": ratio(
            self_s("runtime:alloc") + self_s("runtime:allocate"), allocs
        )
        * 1e9,
        "gc.allocs": count("gc:allocate"),
        "gc.collections": count("gc:collect_young") + count("gc:collect_full"),
        "gc.collect_s": group_s("gc.collect"),
        "heap.allocs": count("heap:allocate"),
        "heap.region_claims": count("heap:claim_region"),
        "heap.region_releases": count("heap:release_region"),
        "core.contexts_resolved": count("core:allocation_context"),
        "core.survivor_batches": count("core:on_gc_survivors"),
        "core.gc_ends": count("core:on_gc_end"),
        "bench.cells": int(new_cells),
        "bench.simulations": int(simulations),
        "bench.memo_hit_ratio": ratio(requested - new_cells, requested),
        "bench.cache_hit_ratio": ratio(
            extra.get("bench.cache_hits", 0.0), count("bench:load")
        ),
        "bench.cache_load_s": group_s("bench.cache_load"),
        "bench.cache_store_s": group_s("bench.cache_store"),
        "bench.cell_p50_s": _p(samples.get("bench.cell", []), 50),
        "bench.cell_p90_s": _p(samples.get("bench.cell", []), 90),
        "bench.render_s": group_s("bench.render"),
        "server.requests": int(extra.get("server.requests", 0.0)),
        "server.handle_ms_p50": _p(samples.get("server.handle", []), 50) * 1e3,
        "server.queue_wait_ms_p50": _p(samples.get("server.queue_wait", []), 50) * 1e3,
        "server.batch_run_ms_p50": _p(samples.get("server.batch_run", []), 50) * 1e3,
        "server.batch_size_mean": ratio(sum(batch_sizes), len(batch_sizes)),
        "server.memo_hit_ratio": (
            ratio(requested - simulations, requested) if served else 0.0
        ),
        "server.rejected": int(extra.get("server.rejected", 0.0)),
    }
    for layer in LAYERS:
        metrics["%s.self_s" % layer] = layer_self(layer)
    return metrics


def count_mismatches(first: Dict[str, float], second: Dict[str, float]) -> List[str]:
    """Count metrics that differ between two traced runs."""
    return [name for name in count_metrics() if first.get(name) != second.get(name)]
