"""The ROLP profiler: orchestration of all profiling machinery.

:class:`RolpProfiler` implements the runtime's profiler hook interface
(:class:`repro.runtime.hooks.NullProfiler`) and wires together:

* the allocation-context encoder (site id + thread stack state),
* the Object Lifetime Distribution table with per-GC-worker buffers,
* the periodic (every 16 GC cycles) lifetime inference,
* the conflict resolver's call-site tracking search,
* the advice table feeding the NG2C pretenuring collector,
* the package filters bounding instrumentation,
* the survivor-tracking on/off controller,
* the fragmentation-driven lifetime decrement loop.

Construction mirrors the paper's deployment model: build a profiler,
hand it to a :class:`repro.runtime.vm.JavaVM` running an NG2C collector
in ``use_profiler_advice`` mode, and run the application — no source
changes, no annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.fastpath import fast_paths_enabled
from repro.heap.header import (
    AGE_MASK,
    AGE_SHIFT,
    BIASED_MASK,
    CONTEXT_SHIFT,
    MASK_16,
    MASK_32,
    NUM_AGES,
)
from repro.heap.object_model import SimObject
from repro.runtime.hooks import NullProfiler
from repro.runtime.method import AllocSite, CallSite, Method
from repro.runtime.thread import SimThread
from repro.core.advice import AdviceTable
from repro.core.conflicts import ConflictResolver
from repro.core.context import context_site, encode
from repro.core.filters import PackageFilter
from repro.core.inference import InferenceEngine, InferenceResult, estimate_drift
from repro.core.old_table import OldTable, WorkerTable
from repro.core.survivor_tracking import SurvivorTrackingController
from repro.telemetry import NULL_TELEMETRY


@dataclass
class RolpConfig:
    """Tunables, defaulting to the paper's recommended settings."""

    #: package filter bounding instrumentation (Section 7.3)
    package_filter: PackageFilter = field(default_factory=PackageFilter.accept_all)
    #: GC cycles between inference passes (16 = HotSpot's max age)
    inference_period_gcs: int = NUM_AGES
    #: fraction of jitted call sites enabled per conflict attempt (≤20%)
    conflict_p_fraction: float = 0.20
    #: minimum estimated age worth pretenuring
    pretenure_min_age: int = 2
    #: minimum samples before a context's curve is trusted
    min_samples: int = 32
    #: probability one unsynchronized OLD increment is lost (Section 7.6)
    increment_loss_probability: float = 0.0005
    #: number of GC worker threads (private survival tables)
    gc_workers: int = 4
    #: profile every Nth allocation per site (1 = every allocation).
    #: The sampling extension the paper names in Section 8.5: unsampled
    #: objects still receive pretenuring advice but contribute no
    #: lifetime statistics, trading signal for mutator throughput.
    allocation_sample_rate: int = 1
    #: survivor-tracking regression threshold (Section 7.4)
    pause_regression_threshold: float = 0.10
    #: consecutive stable inference passes before survivor tracking is
    #: shut down
    stable_passes_required: int = 3
    #: allow dynamic survivor-tracking shutdown at all
    dynamic_survivor_tracking: bool = True
    #: fragmentation blame (dead bytes) above which a context's
    #: estimate is decremented (a quarter region by default)
    fragmentation_blame_bytes: int = 256 << 10

    # -- mutator profiling-code costs (simulated ns) -------------------------
    #: per profiled allocation: context pack + table increment + header
    alloc_profile_ns: float = 18.0
    #: per call-site fast-branch check (test + je on a cached value)
    call_fast_ns: float = 1.2
    #: per call-site slow add/sub of the TLS stack state
    call_slow_ns: float = 6.0


class RolpProfiler(NullProfiler):
    """Runtime object lifetime profiler (the paper's contribution)."""

    def __init__(self, config: Optional[RolpConfig] = None) -> None:
        self.config = config or RolpConfig()
        cfg = self.config
        self.old_table = OldTable(
            increment_loss_probability=cfg.increment_loss_probability
        )
        self.inference = InferenceEngine(
            period_gcs=cfg.inference_period_gcs,
            min_samples=cfg.min_samples,
        )
        self.resolver = ConflictResolver(p_fraction=cfg.conflict_p_fraction)
        self.advice = AdviceTable(pretenure_min_age=cfg.pretenure_min_age)
        self.survivor_controller = SurvivorTrackingController(
            regression_threshold=cfg.pause_regression_threshold,
            stable_passes_required=cfg.stable_passes_required,
        )
        self.workers: List[WorkerTable] = [
            WorkerTable() for _ in range(cfg.gc_workers)
        ]
        #: every call site in instrumented (jitted) code, the resolver's
        #: sampling universe
        self.jitted_call_sites: List[CallSite] = []
        self.instrumented_methods: List[Method] = []
        #: latest inference result (observability / tests)
        self.last_inference: Optional[InferenceResult] = None
        self.inference_history: List[InferenceResult] = []
        #: contexts whose advice changed, per inference pass (warmup curve)
        self.decision_change_log: List[int] = []
        #: per-pass estimate drift vs the previous pass (fuzz objective:
        #: survivor-prediction error); first pass contributes nothing
        self.prediction_error_log: List[float] = []
        #: per-pass count of conflicted allocation sites (fuzz
        #: objective: context-collision pressure)
        self.conflict_rate_log: List[int] = []
        #: fragmentation evidence accumulated between inference passes:
        #: context -> [evacuated dead bytes, wholesale dead bytes]
        self._frag_evidence: Dict[int, List[int]] = {}
        #: per-site allocation counters for the sampling extension
        self._sample_counters: Dict[int, int] = {}
        #: interned site-base contexts (site_id -> site half of encode());
        #: a hit also proves the site is registered, so the fast
        #: allocation-context path skips the membership check
        self._site_bases: Dict[int, int] = {}
        #: sites flagged as conflicted in the two previous inference
        #: passes — a resolution search only starts once a conflict
        #: recurs within that window, so one-off warmup-ramp artifacts
        #: (JIT compilation mid-window skews the first curves) do not
        #: trigger call-site tracking, while genuine conflicts that
        #: flicker between passes still do
        self._conflict_history: List[set] = []
        self.allocations_sampled = 0
        self.allocations_skipped = 0
        self.survivals_recorded = 0
        self.survivals_discarded = 0

        # surface the cost constants the VM charges
        self.alloc_profile_ns = cfg.alloc_profile_ns
        self.call_fast_ns = cfg.call_fast_ns
        self.call_slow_ns = cfg.call_slow_ns

        #: construction-time snapshot of the process fast-path switch
        self.fast_paths = fast_paths_enabled()
        if self.fast_paths:
            # Rebinding as instance attributes shadows the class methods,
            # so hot hook dispatch costs one attribute load, no branch.
            self.allocation_context = self._allocation_context_fast  # type: ignore[method-assign]
            self.on_allocation = self._on_allocation_fast  # type: ignore[method-assign]
            self.on_gc_survivors = self._on_gc_survivors_fast  # type: ignore[method-assign]

        self.bind_telemetry(NULL_TELEMETRY)

    # ------------------------------------------------------------------ telemetry

    def bind_telemetry(self, telemetry) -> None:
        """Attach tracing + metrics (the VM calls this at construction)."""
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        self._m_increments = metrics.counter(
            "rolp_table_increments_total", "OLD-table allocation increments"
        )
        self._m_increments_lost = metrics.counter(
            "rolp_table_increments_lost_total",
            "Increments lost to unsynchronized table updates",
        )
        self._m_survivals = metrics.counter(
            "rolp_survivals_recorded_total", "Survivor updates buffered by GC workers"
        )
        self._m_inference = metrics.counter(
            "rolp_inference_passes_total", "Lifetime inference passes"
        )
        self._m_advice_changes = metrics.counter(
            "rolp_advice_changes_total", "Pretenuring advice changes"
        )
        self._m_instrumented_methods = metrics.gauge(
            "rolp_instrumented_methods", "Methods carrying profiling code"
        )
        #: the fast paths only skip counter updates that would be null
        #: no-ops anyway, so metric totals match the reference paths
        self._metrics_on = metrics.enabled
        self.resolver.bind_telemetry(telemetry)

    # ------------------------------------------------------------------ JIT hooks

    def should_instrument(self, method: Method) -> bool:
        return self.config.package_filter.accepts(method.package)

    def on_method_compiled(self, method: Method) -> None:
        self.instrumented_methods.append(method)
        self._m_instrumented_methods.set(len(self.instrumented_methods))
        for site in method.alloc_sites.values():
            self.old_table.register_site(site.site_id)
        for call_site in method.call_sites.values():
            if call_site.instrumented:
                self.jitted_call_sites.append(call_site)

    # --------------------------------------------------------------- mutator hooks

    def allocation_context(self, thread: SimThread, site: AllocSite) -> int:
        if not site.profiled:
            return 0
        # Late-registered sites (uncommon-trap recompiles) may not have
        # passed through on_method_compiled's registration.
        if site.site_id not in self.old_table.registered_sites:
            self.old_table.register_site(site.site_id)
        return encode(site.site_id, thread.stack_state)

    def _allocation_context_fast(self, thread: SimThread, site: AllocSite) -> int:
        """== :meth:`allocation_context`; the site half of ``encode()`` is
        interned per site id, and a hit subsumes the registration check."""
        site_id = site.site_id
        if site_id == 0:
            return 0
        base = self._site_bases.get(site_id)
        if base is None:
            base = (site_id & MASK_16) << 16
            self._site_bases[site_id] = base
            self.old_table.registered_sites.add(site_id)
        return base | (thread.stack_state & MASK_16)

    def sample_allocation(self, site: AllocSite) -> bool:
        rate = self.config.allocation_sample_rate
        if rate <= 1:
            return True
        count = self._sample_counters.get(site.site_id, 0)
        self._sample_counters[site.site_id] = count + 1
        if count % rate == 0:
            self.allocations_sampled += 1
            return True
        self.allocations_skipped += 1
        return False

    def on_allocation(self, context: int, obj: SimObject) -> None:
        self._m_increments.inc()
        if not self.old_table.increment_alloc(context):
            self._m_increments_lost.inc()

    def _on_allocation_fast(self, context: int, obj: SimObject) -> None:
        """== :meth:`on_allocation` with the known-context check, the
        loss draw and the row update inlined.  The RNG is consulted under
        exactly the same conditions as ``increment_alloc``, preserving
        the draw sequence."""
        metrics_on = self._metrics_on
        if metrics_on:
            self._m_increments.inc()
        table = self.old_table
        if context == 0 or (context >> 16) & MASK_16 not in table.registered_sites:
            if metrics_on:
                self._m_increments_lost.inc()
            return
        p = table.increment_loss_probability
        if p and table._rng.random() < p:
            table.lost_increments += 1
            if metrics_on:
                self._m_increments_lost.inc()
            return
        rows = table._rows
        row = rows.get(context)
        if row is None:
            rows[context] = row = [0] * NUM_AGES
        row[0] += 1

    def call_site_enabled(self, site: CallSite) -> bool:
        return site.enabled

    # ------------------------------------------------------------------- GC hooks

    def survivor_tracking_enabled(self) -> bool:
        if not self.config.dynamic_survivor_tracking:
            return True
        return self.survivor_controller.enabled

    def on_gc_survivor(self, worker_id: int, obj: SimObject) -> None:
        """GC worker processing one survivor: validate the header and
        buffer the survival update in the worker's private table."""
        if obj.biased_locked:
            self.survivals_discarded += 1
            return
        context = obj.context
        if not self.old_table.is_known_context(context):
            self.survivals_discarded += 1
            return
        worker = self.workers[worker_id % len(self.workers)]
        worker.record_survival(context, obj.age)
        self.survivals_recorded += 1
        self._m_survivals.inc()

    def _on_gc_survivors_fast(self, objs: Sequence[SimObject], gc_threads: int) -> None:
        """== the generic :meth:`on_gc_survivors` loop over
        :meth:`on_gc_survivor`, with the header reads, validity checks
        and worker buffering inlined; one batched counter update stands
        in for the per-survivor increments (same total)."""
        workers = self.workers
        nworkers = len(workers)
        registered = self.old_table.registered_sites
        recorded = 0
        discarded = 0
        for index, obj in enumerate(objs):
            header = obj.header
            if header & BIASED_MASK:
                discarded += 1
                continue
            context = (header >> CONTEXT_SHIFT) & MASK_32
            if context == 0 or (context >> 16) & MASK_16 not in registered:
                discarded += 1
                continue
            updates = workers[(index % gc_threads) % nworkers].updates
            key = (context, (header & AGE_MASK) >> AGE_SHIFT)
            updates[key] = updates.get(key, 0) + 1
            recorded += 1
        self.survivals_recorded += recorded
        self.survivals_discarded += discarded
        if recorded and self._metrics_on:
            self._m_survivals.inc(recorded)

    def on_gc_end(self, gc_number: int, now_ns: int, pause_ns: float) -> None:
        merged_entries = 0
        for worker in self.workers:
            pending = len(worker)
            if pending:
                self.old_table.merge_worker(worker)
                merged_entries += pending
        if merged_entries and self._tracer.enabled:
            self._tracer.instant(
                "rolp/table-merge",
                ts_ns=now_ns,
                category="rolp",
                gc_number=gc_number,
                entries=merged_entries,
            )
        self.survivor_controller.observe_pause(pause_ns)
        if self.inference.due(gc_number):
            self._run_inference(gc_number)

    def _run_inference(self, gc_number: int) -> None:
        result = self.inference.run(
            self.old_table,
            gc_number,
            pretenured=lambda context: self.advice.generation_for(context) > 0,
        )
        if self.inference_history:
            self.prediction_error_log.append(
                estimate_drift(self.inference_history[-1], result)
            )
        self.conflict_rate_log.append(len(result.conflicted_sites))
        self.last_inference = result
        self.inference_history.append(result)
        self.advice.begin_pass()

        self._judge_fragmentation()

        # Debounce: a new conflict must recur within the last two
        # passes; active searches keep seeing the raw current state.
        seen_recently: set = set()
        for past in self._conflict_history[-2:]:
            seen_recently |= past
        persistent = (result.conflicted_sites & seen_recently) | (
            result.conflicted_sites & set(self.resolver.active)
        )
        self._conflict_history.append(set(result.conflicted_sites))

        for site_id in persistent:
            self.old_table.expand_for_conflict(site_id)
            # A conflicted site's call paths have different lifetimes:
            # its contexts must never share a site-default estimate.
            self.advice.mark_split(site_id)
        # The resolver advances BEFORE the advice updates: the pass that
        # resolves a conflict is exactly the pass whose (cleanly split)
        # curves should be trusted, so the site must leave the active
        # set before the update loop's mid-resolution guard checks it.
        self.resolver.on_inference(persistent, self.jitted_call_sites)

        changes = 0
        for context, analysis in result.analyses.items():
            if self._frag_guilty(context):
                # The collector is simultaneously reporting that this
                # context's garbage required copying out of fragmented
                # regions: any "longer survival" in the table is the
                # artifact of those same evacuations rescanning its
                # survivors, not a genuine lifetime increase.  The
                # decrement path owns this context for now.
                continue
            site_id = context_site(context)
            if site_id in self.resolver.active:
                # Mid-resolution curves swing between uni- and
                # multi-modal as tracking subsets come and go; trusting
                # them would pin a wrong estimate (update_estimate never
                # downgrades).  Wait until the search concludes.
                continue
            if analysis.is_conflict:
                if site_id in self.resolver.given_up_sites:
                    # No call-path split explains this curve: the
                    # lifetime is genuinely multi-modal.  Pretenure
                    # conservatively to the *earliest* death age so no
                    # cohort is over-tenured (over-tenuring causes
                    # fragmentation; under-tenuring only costs copies).
                    conservative = min(analysis.peaks)
                    if self.advice.update_estimate(context, conservative):
                        changes += 1
                # Otherwise: no single lifetime to trust yet; the
                # resolver works on splitting the call paths first.
                continue
            if self.advice.update_estimate(context, analysis.estimated_age):
                changes += 1
        self.decision_change_log.append(changes)

        self._m_inference.inc()
        self._m_advice_changes.inc(changes)
        if self._tracer.enabled:
            self._tracer.instant(
                "rolp/inference",
                category="rolp",
                gc_number=gc_number,
                advice_changes=changes,
                conflicted_sites=len(result.conflicted_sites),
                active_searches=len(self.resolver.active),
            )

        if self.config.dynamic_survivor_tracking:
            tracking_before = self.survivor_controller.enabled
            self.survivor_controller.on_inference(
                decisions_changed=changes > 0,
                have_decisions=len(self.advice) > 0,
            )
            if tracking_before != self.survivor_controller.enabled and self._tracer.enabled:
                self._tracer.instant(
                    "rolp/survivor-tracking",
                    category="rolp",
                    enabled=self.survivor_controller.enabled,
                )

    def on_fragmentation_report(self, blame: Dict[int, tuple]) -> None:
        """Collector reports ``context -> (evacuated dead bytes,
        wholesale-reclaimed dead bytes)`` for the dynamic generations.

        Evidence is *accumulated* between inference passes rather than
        judged per GC: a cohort that dies together produces its
        wholesale credit on one GC and its boundary-region blame on the
        following ones, so any per-GC ratio would be skewed.  The
        verdict happens in :meth:`_judge_fragmentation` once per pass.
        """
        for context, (evacuated, wholesale) in blame.items():
            entry = self._frag_evidence.setdefault(context, [0, 0])
            entry[0] += evacuated
            entry[1] += wholesale

    def _frag_guilty(self, context: int) -> bool:
        """Whether pending fragmentation evidence marks this context as
        copy-dominant mis-tenured (blocks lifetime-increase updates)."""
        entry = self._frag_evidence.get(context)
        if not entry:
            return False
        evacuated, wholesale = entry
        if evacuated < self.config.fragmentation_blame_bytes:
            return False
        total = evacuated + wholesale
        return bool(total) and evacuated / total >= 0.5

    def _judge_fragmentation(self) -> None:
        """Decrement contexts whose garbage predominantly required
        *copying* (evacuated out of mixed-liveness regions).  Contexts
        whose objects die together get their regions back for free and
        must not be poisoned by the boundary region a cohort straddles
        (paper Section 6)."""
        for context, (evacuated, wholesale) in self._frag_evidence.items():
            if evacuated < self.config.fragmentation_blame_bytes:
                continue
            total = evacuated + wholesale
            if total and evacuated / total >= 0.5:
                self.advice.decrement(context)
        self._frag_evidence.clear()

    # --------------------------------------------------------------------- advice

    def allocation_advice(self, context: int) -> int:
        return self.advice.generation_for(context)

    # ----------------------------------------------------------------- statistics

    def conflicts_found(self) -> int:
        return self.resolver.conflicts_seen

    def prediction_error(self) -> float:
        """Mean per-pass estimate drift (0.0 before the second pass).

        Deliberately NOT part of :meth:`summary` — rendered artifacts
        and their goldens must not change shape; the fuzz oracle reads
        this directly."""
        log = self.prediction_error_log
        return sum(log) / len(log) if log else 0.0

    def conflict_rate(self) -> float:
        """Mean conflicted-site count per inference pass (0.0 before
        the first pass); the fuzzer's context-collision objective."""
        log = self.conflict_rate_log
        return sum(log) / len(log) if log else 0.0

    def old_table_memory_bytes(self) -> int:
        return self.old_table.memory_bytes()

    def summary(self) -> Dict[str, float]:
        return {
            "instrumented_methods": len(self.instrumented_methods),
            "jitted_call_sites": len(self.jitted_call_sites),
            "advice_entries": len(self.advice),
            "conflicts": self.conflicts_found(),
            "old_table_mb": self.old_table_memory_bytes() / (1 << 20),
            "survivals_recorded": self.survivals_recorded,
            "survivals_discarded": self.survivals_discarded,
            "inference_passes": self.inference.passes_run,
            "survivor_tracking_on": float(self.survivor_tracking_enabled()),
        }
