"""Per-layer host-time tracer for the traced benchmark run.

The tracer wraps public entry points of the ``repro`` packages and
aggregates, per entry point, a call count and a *self time*: the span's
duration minus the duration of the wrapped spans nested inside it.  A
layer's self time is the sum over its entry points, which equals the
time inside the layer's wrapped calls minus the time inside nested
wrapped calls of other layers.  Nothing is recorded per call: counts and
sums live in per-thread tables that are merged when the run ends.

This module imports nothing from ``repro`` at import time;
:func:`install` does the patching inside the child process that runs
the program.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

Entry = Tuple[str, str]  # (layer, entry point name)


class _Frame:
    __slots__ = ("entry", "fn", "obj", "group", "start", "child")

    def __init__(self, entry, fn, obj, group, start):
        self.entry = entry
        self.fn = fn
        self.obj = obj
        self.group = group
        self.start = start
        self.child = 0.0


class _ThreadState:
    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        #: entry -> [count, self seconds]
        self.entries: Dict[Entry, List[float]] = {}
        #: group -> number of open spans of that group on this thread
        self.open_groups: Dict[str, int] = {}
        #: group -> [count, inclusive seconds of outermost spans]
        self.groups: Dict[str, List[float]] = {}


class LayerTracer:
    """Counts and self time per wrapped entry point.

    ``group`` names a set of entry points whose *outermost* spans are
    also summed inclusively (for example every collection entry point
    under ``gc.collect``); ``sampled`` groups additionally keep each
    outermost duration so percentiles can be taken.  Counts skip a call
    that only continues an override chain (``super().collect_full()``
    inside ``G1Collector.collect_full``), so an overridden entry point
    counts once per logical call.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._sampled: set = set()
        self.samples: Dict[str, List[float]] = {}
        self.extra: Dict[str, float] = {}

    # -- recording --------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, entry: Entry, fn=None, obj=None, group: Optional[str] = None) -> _Frame:
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        chained = (
            parent is not None
            and parent.entry == entry
            and parent.obj is obj
            and obj is not None
            and parent.fn is not fn
        )
        if not chained:
            stats = state.entries.get(entry)
            if stats is None:
                stats = state.entries[entry] = [0, 0.0]
            stats[0] += 1
        if group is not None:
            state.open_groups[group] = state.open_groups.get(group, 0) + 1
        frame = _Frame(entry, fn, obj, group, self.clock())
        stack.append(frame)
        return frame

    def leave(self, frame: _Frame) -> None:
        duration = self.clock() - frame.start
        state = self._state()
        stack = state.stack
        stack.pop()
        stats = state.entries.get(frame.entry)
        if stats is None:
            stats = state.entries[frame.entry] = [0, 0.0]
        stats[1] += duration - frame.child
        if stack:
            stack[-1].child += duration
        group = frame.group
        if group is not None:
            depth = state.open_groups[group] - 1
            state.open_groups[group] = depth
            if depth == 0:
                totals = state.groups.get(group)
                if totals is None:
                    totals = state.groups[group] = [0, 0.0]
                totals[0] += 1
                totals[1] += duration
                if group in self._sampled:
                    self.sample(group, duration)

    def sample(self, name: str, value: float) -> None:
        """Keep one observation of ``name`` (low-frequency events only)."""
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Add to a free-form total (low-frequency events only)."""
        with self._lock:
            self.extra[name] = self.extra.get(name, 0.0) + amount

    def sampled(self, group: str) -> None:
        """Keep every outermost duration of ``group``."""
        self._sampled.add(group)

    # -- wrapping ---------------------------------------------------------------

    def wrap_method(self, layer: str, name: str, fn, group: Optional[str] = None):
        """Wrap an unbound method; the instance takes part in override
        chain detection."""
        entry = (layer, name)
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            frame = enter(entry, fn, obj, group)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                leave(frame)

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def wrap_function(self, layer: str, name: str, fn, group: Optional[str] = None):
        """Wrap a plain function or an already-bound method."""
        entry = (layer, name)
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(entry, fn, None, group)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------------

    def entries(self) -> Dict[Entry, Tuple[int, float]]:
        merged: Dict[Entry, List[float]] = {}
        with self._lock:
            for state in self._states:
                for entry, (count, self_s) in state.entries.items():
                    slot = merged.setdefault(entry, [0, 0.0])
                    slot[0] += count
                    slot[1] += self_s
        return {entry: (int(c), s) for entry, (c, s) in merged.items()}

    def groups(self) -> Dict[str, Tuple[int, float]]:
        merged: Dict[str, List[float]] = {}
        with self._lock:
            for state in self._states:
                for group, (count, total) in state.groups.items():
                    slot = merged.setdefault(group, [0, 0.0])
                    slot[0] += count
                    slot[1] += total
        return {group: (int(c), s) for group, (c, s) in merged.items()}

    def snapshot(self) -> Dict[str, object]:
        """Everything recorded, as plain JSON-able data."""
        return {
            "entries": {
                "%s:%s" % entry: [count, self_s]
                for entry, (count, self_s) in sorted(self.entries().items())
            },
            "groups": {g: [c, s] for g, (c, s) in sorted(self.groups().items())},
            "samples": {k: list(v) for k, v in sorted(self.samples.items())},
            "extra": dict(sorted(self.extra.items())),
        }


# ------------------------------------------------------------------ the layers

#: (layer, module, class, methods, group) — class-level wrapping; every
#: subclass in the same module tree that overrides a method is wrapped too
CLASS_ENTRIES = (
    ("workloads", "repro.workloads.base", "Workload", ("run_op",), None),
    ("runtime", "repro.runtime.interpreter", "ExecutionContext", ("call", "alloc"), None),
    ("runtime", "repro.runtime.vm", "JavaVM", ("allocate",), None),
    ("runtime", "repro.runtime.jit", "JitCompiler", ("compile",), None),
    ("gc", "repro.gc.collector", "Collector", ("allocate",), None),
    ("gc", "repro.gc.collector", "Collector", ("collect_young", "collect_full"), "gc.collect"),
    ("heap", "repro.heap.heap", "RegionHeap", ("allocate", "claim_region", "release_region"), None),
    (
        "core",
        "repro.core.profiler",
        "RolpProfiler",
        ("allocation_context", "on_allocation", "on_gc_survivors", "on_gc_end"),
        None,
    ),
    ("telemetry", "repro.telemetry.tracer", "NullTracer", ("bind_clock", "hot_instant", "instant", "span"), None),
    ("telemetry", "repro.telemetry.metrics", "Counter", ("inc",), None),
    ("telemetry", "repro.telemetry.metrics", "Histogram", ("observe",), None),
    ("telemetry", "repro.telemetry.metrics", "MetricsRegistry", ("counter", "gauge", "histogram"), None),
    ("telemetry", "repro.telemetry.metrics", "_NullInstrument", ("inc", "dec", "set", "observe"), None),
    ("telemetry", "repro.telemetry", "TelemetrySession", ("for_run",), None),
    ("bench", "repro.bench.runner", "ResultCache", ("load",), "bench.cache_load"),
    ("bench", "repro.bench.runner", "ResultCache", ("store",), "bench.cache_store"),
)

#: constructors that rebind entry points as instance attributes (the
#: fast backend's inlined twins); wrapped again after ``__init__``
INSTANCE_REBINDS = (
    ("runtime", "repro.runtime.vm", "JavaVM", ("allocate",)),
    (
        "core",
        "repro.core.profiler",
        "RolpProfiler",
        ("allocation_context", "on_allocation", "on_gc_survivors"),
    ),
)

#: (module, function names, group) — module-level functions, looked up
#: through the module at call time by their callers
FUNCTION_ENTRIES = (
    ("repro.bench.runner", ("_execute",), "bench.cell"),
    ("repro.bench.figures", ("render_figure6", "render_figure8", "render_figure9"), "bench.render"),
    ("repro.bench.tables", ("render_table1", "render_table2"), "bench.render"),
)


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _import_all_collectors() -> None:
    import importlib

    for name in ("cms", "g1", "generational", "ng2c", "zgc"):
        importlib.import_module("repro.gc." + name)


def install(tracer: LayerTracer) -> None:
    """Wrap every entry point of the layer table.  Call before any VM is
    built; wrapping is idempotent per class attribute."""
    import importlib

    _import_all_collectors()
    importlib.import_module("repro.server")
    for layer, module_name, class_name, methods, group in CLASS_ENTRIES:
        base = getattr(importlib.import_module(module_name), class_name)
        for cls in _subclasses(base):
            for method in methods:
                fn = cls.__dict__.get(method)
                if fn is None or hasattr(fn, "__perfbench_wrapped__"):
                    continue
                setattr(cls, method, tracer.wrap_method(layer, method, fn, group))
    for layer, module_name, class_name, methods in INSTANCE_REBINDS:
        cls = getattr(importlib.import_module(module_name), class_name)
        _wrap_rebinds(tracer, cls, layer, methods)
    for module_name, names, group in FUNCTION_ENTRIES:
        module = importlib.import_module(module_name)
        for name in names:
            fn = getattr(module, name)
            layer = module_name.split(".")[1]
            setattr(module, name, tracer.wrap_function(layer, name, fn, group))
    tracer.sampled("bench.cell")
    submitted = _SubmitLedger()
    _install_runner(tracer, submitted)
    _install_server(tracer, submitted)


def _wrap_rebinds(tracer: LayerTracer, cls, layer: str, methods) -> None:
    original_init = cls.__init__

    @functools.wraps(original_init)
    def __init__(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        for method in methods:
            bound = self.__dict__.get(method)
            if bound is not None and not hasattr(bound, "__perfbench_wrapped__"):
                self.__dict__[method] = tracer.wrap_function(layer, method, bound)

    cls.__init__ = __init__


def _install_runner(tracer: LayerTracer, submitted: _SubmitLedger) -> None:
    """``Runner.run``: requested cells, new unique cells and simulations
    per call, read off the runner's own stats around the call."""
    from repro.bench.runner import Runner

    run = Runner.run

    @functools.wraps(run)
    def wrapped_run(self, cells, *args, **kwargs):
        cells = list(cells)
        stats = self.stats
        before = (stats.cells, stats.simulations, stats.cache_hits)
        started = tracer.clock()
        waits = submitted.claim(cells, started)
        frame = tracer.enter(("bench", "run"), run, None, None)
        try:
            return run(self, cells, *args, **kwargs)
        finally:
            tracer.leave(frame)
            elapsed = tracer.clock() - started
            tracer.add("bench.requested", len(cells))
            tracer.add("bench.new_cells", stats.cells - before[0])
            tracer.add("bench.simulations", stats.simulations - before[1])
            tracer.add("bench.cache_hits", stats.cache_hits - before[2])
            if waits is not None:
                for wait in waits:
                    tracer.sample("server.queue_wait", wait)
                tracer.sample("server.batch_run", elapsed)
                tracer.sample("server.batch_size", len(cells))

    wrapped_run.__perfbench_wrapped__ = run
    Runner.run = wrapped_run


class _SubmitLedger:
    """Submit times of admitted server jobs, claimed by the batch that
    runs them (the batcher runs batches on an executor thread)."""

    def __init__(self) -> None:
        self.active = False
        self._lock = threading.Lock()
        self._pending: Dict[object, List[float]] = {}

    def submit(self, cell, now: float) -> None:
        with self._lock:
            self._pending.setdefault(cell, []).append(now)

    def claim(self, cells, now: float) -> Optional[List[float]]:
        if not self.active:
            return None
        waits = []
        with self._lock:
            for cell in cells:
                times = self._pending.get(cell)
                if times:
                    waits.append(now - times.pop(0))
        return waits


def _install_server(tracer: LayerTracer, submitted: _SubmitLedger) -> None:
    """``ServerApp.handle`` (a coroutine: timed per request, outside the
    span stack) and ``JobBatcher.submit``."""
    from repro.server.app import ServerApp
    from repro.server.batcher import JobBatcher

    handle = ServerApp.handle

    @functools.wraps(handle)
    async def wrapped_handle(self, request):
        submitted.active = True
        started = tracer.clock()
        response = await handle(self, request)
        # health polls depend on timing; only protocol requests count
        if request.path.startswith("/v1/"):
            tracer.sample("server.handle", tracer.clock() - started)
            tracer.add("server.requests")
            if response.status == 429:
                tracer.add("server.rejected")
        return response

    submit = JobBatcher.submit

    @functools.wraps(submit)
    def wrapped_submit(self, cell):
        future = submit(self, cell)
        submitted.submit(cell, tracer.clock())
        return future

    ServerApp.handle = wrapped_handle
    JobBatcher.submit = wrapped_submit
