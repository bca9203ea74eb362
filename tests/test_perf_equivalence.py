"""Differential equivalence suite for the execution backends.

The fast backend (:mod:`repro.fastpath`) is a pure reimplementation:
under either of ``reference``/``fast``, every figure/table cell and
every hot-path kernel must produce byte-identical results.  Four layers
pin that down:

* each hot-path kernel's fingerprint (counters, clock totals, OLD-table
  checksums, stack states) matches across both backends,
* the rendered ``table1``/``fig6`` artifacts (stdout and ``--json-dir``
  JSON) match across both backends,
* every backend survives a level-2 invariant verification
  (``InvariantViolation``-free), and verification does not change the
  kernel fingerprints,
* the hostile demographies (the adversarial fuzz workload and the
  trace-calibrated replay) fingerprint byte-identically across both
  backends — equivalence must hold under antagonistic allocation
  patterns, not just the paper's friendly workloads.

Speed is not measured here: ``perfbench/`` times the paper grids and
served sessions end to end.
"""

import contextlib
import json
import random

import pytest

from repro import build_vm
from repro.analysis import set_default_verify_level
from repro.bench import fuzz
from repro.bench.cli import main
from repro.core.profiler import RolpConfig, RolpProfiler
from repro.fastpath import BACKENDS, backend, set_backend
from repro.gc.g1 import G1Collector
from repro.heap import header as hdr
from repro.heap.bandwidth import BandwidthModel
from repro.heap.heap import RegionHeap
from repro.heap.object_model import IMMORTAL, SimObject
from repro.runtime.method import Method
from repro.runtime.vm import JavaVM, VMFlags

SEED = 20260805


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch, tmp_path):
    monkeypatch.setenv("ROLP_BENCH_SCALE", "0.02")
    monkeypatch.setenv("ROLP_BENCH_CACHE_DIR", str(tmp_path / "cell-cache"))


@contextlib.contextmanager
def backend_mode(name):
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


@contextlib.contextmanager
def verify_level(level):
    set_default_verify_level(level)
    try:
        yield
    finally:
        set_default_verify_level(0)


def fingerprint_bytes(fingerprint):
    """The fingerprint serialized as canonical JSON — equality must
    hold at the byte level, not merely ``==``."""
    return json.dumps(fingerprint, sort_keys=True).encode()


def rendered(capsys):
    """Stdout minus the output-path echo lines (the only lines allowed
    to differ between runs: they name run-specific tmp directories)."""
    out = capsys.readouterr().out
    return "".join(
        line
        for line in out.splitlines(keepends=True)
        if " written to " not in line
    )


# ---------------------------------------------------------------------- kernels
#
# Each kernel drives one of the simulator's hottest paths — allocation,
# method entry/exit, survivor tracking, header pack/unpack and the
# young-GC copy loop — and returns ``(ops_done, fingerprint)``.  The
# fingerprint covers every observable a backend could perturb: clock
# totals (float repr — bit equality, not tolerance), RNG-dependent
# counters, table contents, stack states.  The ambient backend (set by
# :func:`kernel_fingerprint` before fixture construction) selects the
# execution strategy; the op stream is identical under both.


def _table_checksum(table):
    """Order-independent digest of the OLD table's full contents."""
    checksum = 0
    for context in sorted(table.contexts()):
        checksum = (checksum * 1000003 + context) & hdr.MASK_64
        for value in table.curve(context):
            checksum = (checksum * 1000003 + value) & hdr.MASK_64
    return checksum


def _alloc_loop_method(sizes, lives):
    def body(ctx, start, count):
        for j in range(start, start + count):
            ctx.alloc(j % 7, sizes[j % len(sizes)], lives[j % len(lives)])

    return Method("allocLoop", "bench.perf.Alloc", body, bytecode_size=120)


def _call_tree_methods():
    # bytecode_size > inline_max_size keeps every site out of inlining,
    # so each carries a real stack-state increment once jitted
    def leaf(ctx):
        pass

    leaf_a = Method("leafA", "bench.perf.Call", leaf, bytecode_size=100)
    leaf_b = Method("leafB", "bench.perf.Call", leaf, bytecode_size=100)

    def mid_body(ctx):
        ctx.call(1, leaf_a)
        ctx.call(2, leaf_b)

    mid = Method("mid", "bench.perf.Call", mid_body, bytecode_size=100)

    def root_body(ctx, count):
        for _ in range(count):
            ctx.call(1, mid)
            ctx.call(2, mid)

    root = Method("root", "bench.perf.Call", root_body, bytecode_size=100)
    return root, mid, leaf_a, leaf_b


def _copy_fill_method(sizes):
    # immortal allocations: survive every GC
    def body(ctx, start, count):
        for j in range(start, start + count):
            ctx.alloc(j % 5, sizes[j % len(sizes)])

    return Method("fill", "bench.perf.Copy", body, bytecode_size=120)


def _kernel_alloc(seed, ops):
    """The allocation path: table-indexed ``ctx.alloc`` → context
    resolution → sampling → collector placement → header install →
    OLD-table increment."""
    rng = random.Random(seed)
    sizes = [rng.choice((64, 128, 192, 256, 384, 512)) for _ in range(997)]
    lives = [rng.choice((5_000, 50_000, 500_000)) for _ in range(991)]
    vm, profiler = build_vm(
        "rolp",
        heap_mb=64,
        region_kb=256,
        flags=VMFlags(compile_threshold=1),
    )
    thread = vm.spawn_thread("bench")
    method = _alloc_loop_method(sizes, lives)
    done = 0
    while done < ops:
        count = min(1_000, ops - done)
        vm.run(thread, method, done, count)
        done += count
    return done, {
        "allocations": vm.allocations,
        "bytes": vm.bytes_allocated,
        "gc_cycles": vm.collector.gc_cycles,
        "now_ns": vm.clock.now_ns,
        "tax": repr(vm.profiling_tax_ns),
        "table": _table_checksum(profiler.old_table),
        "survivals": profiler.survivals_recorded,
        "lost": profiler.old_table.lost_increments,
        "stack_state": thread.stack_state,
    }


def _kernel_call(seed, ops):
    """Method entry/exit: call-site bookkeeping, the stack-state add/sub
    slow path (mode ``slow``), frame push/pop, JIT invocation counting."""
    vm, _ = build_vm(
        "rolp",
        heap_mb=64,
        region_kb=256,
        flags=VMFlags(compile_threshold=10, call_profiling_mode="slow"),
    )
    thread = vm.spawn_thread("bench")
    root, mid, leaf_a, leaf_b = _call_tree_methods()
    # each root-body iteration performs 6 dynamic calls (2 mid + 4 leaf)
    iterations = max(1, ops // 6)
    done = 0
    while done < iterations:
        count = min(500, iterations - done)
        vm.run(thread, root, count)
        done += count
    return iterations * 6, {
        "invocations": [
            root.invocations,
            mid.invocations,
            leaf_a.invocations,
            leaf_b.invocations,
        ],
        "stack_state": thread.stack_state,
        "now_ns": vm.clock.now_ns,
        "tax": repr(vm.profiling_tax_ns),
        "compiled": len(vm.jit.compiled_methods),
    }


def _kernel_survivor(seed, ops):
    """Survivor tracking: the per-GC-worker buffering of survival
    records plus the end-of-pause merge into the OLD table (including
    the periodic inference pass)."""
    rng = random.Random(seed)
    profiler = RolpProfiler(RolpConfig(gc_workers=4))
    table = profiler.old_table
    for site_id in range(1, 65):
        table.register_site(site_id)
    objs = []
    for _ in range(2_048):
        # site 0 and sites 65..80 are unknown → validity-filter work;
        # a slice of biased-locked headers exercises the discard path
        context = hdr.pack_context(rng.randint(0, 80), rng.randint(0, 0xFFFF))
        obj = SimObject(64, 0, IMMORTAL, context)
        obj.header = hdr.set_age(obj.header, rng.randint(0, 15))
        if rng.random() < 0.05:
            obj.header = hdr.bias_lock(obj.header, 0xDEAD)
        objs.append(obj)
    batches = max(1, ops // len(objs))
    for gc_number in range(1, batches + 1):
        profiler.on_gc_survivors(objs, 4)
        profiler.on_gc_end(gc_number, gc_number * 1_000_000, 1_000_000.0)
    return batches * len(objs), {
        "table": _table_checksum(table),
        "recorded": profiler.survivals_recorded,
        "discarded": profiler.survivals_discarded,
        "advice": len(profiler.advice),
        "inference_passes": profiler.inference.passes_run,
    }


def _kernel_header(seed, ops):
    """Header bit manipulation: the age increment and fresh-header
    construction the copy and allocation loops lean on.  The fast
    backend runs the optimised scalar functions, the reference backend
    their ``*_reference`` twins; the accumulator proves both compute
    the same words."""
    rng = random.Random(seed)
    headers = [rng.getrandbits(64) for _ in range(4_096)]
    contexts = [rng.getrandbits(32) for _ in range(4_096)]
    if backend() == "reference":
        increment, fresh = hdr.increment_age_reference, hdr.fresh_header_reference
    else:
        increment, fresh = hdr.increment_age, hdr.fresh_header
    accumulator = 0
    n = len(headers)
    for i in range(ops):
        j = i % n
        accumulator = (
            accumulator + increment(headers[j]) + fresh(contexts[j])
        ) & hdr.MASK_64
    return ops, {"checksum": accumulator}


def _kernel_gc_copy(seed, ops):
    """The young-GC copy loop: survivor profiling, aging, re-placement.
    A tenuring threshold above ``MAX_AGE`` pins every object in survivor
    space, so each forced collection re-copies the full live set."""
    rng = random.Random(seed)
    heap = RegionHeap(64 << 20, 256 << 10)
    collector = G1Collector(
        heap, BandwidthModel(), young_regions=16, tenuring_threshold=20
    )
    profiler = RolpProfiler()
    vm = JavaVM(collector, profiler, VMFlags(compile_threshold=1))
    thread = vm.spawn_thread("bench")
    sizes = [rng.choice((96, 128, 160, 192, 256)) for _ in range(997)]
    method = _copy_fill_method(sizes)
    live_objects = 16_000
    done = 0
    while done < live_objects:
        count = min(1_000, live_objects - done)
        vm.run(thread, method, done, count)
        done += count
    copies = 0
    while copies < ops:
        collector.collect_young()
        copies = sum(p.survivors for p in collector.pauses)
    return copies, {
        "bytes_copied": collector.bytes_copied_total,
        "breakdown": dict(collector.copy_breakdown),
        "gc_cycles": collector.gc_cycles,
        "now_ns": vm.clock.now_ns,
        "table": _table_checksum(profiler.old_table),
        "recorded": profiler.survivals_recorded,
        "discarded": profiler.survivals_discarded,
    }


KERNELS = {
    "alloc": _kernel_alloc,
    "call": _kernel_call,
    "survivor": _kernel_survivor,
    "header": _kernel_header,
    "gc_copy": _kernel_gc_copy,
}

#: per-kernel operation budget (small: equivalence, not speed, is tested)
KERNEL_OPS = {
    "alloc": 2_000,
    "call": 2_000,
    "survivor": 2_400,
    "header": 4_000,
    "gc_copy": 2_000,
}


def kernel_fingerprint(kernel, seed, ops, backend_name):
    """Run one kernel under one backend; return ``(ops_done,
    fingerprint)``.

    The process-global backend switch is flipped for the duration, so
    every component constructed inside captures the requested backend."""
    with backend_mode(backend_name):
        return KERNELS[kernel](seed, ops)


class TestKernelEquivalence:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fingerprints_byte_identical(self, kernel):
        results = {
            name: kernel_fingerprint(kernel, SEED, KERNEL_OPS[kernel], name)
            for name in BACKENDS
        }
        ops_done, reference = results["reference"]
        for name in BACKENDS:
            assert fingerprint_bytes(results[name][1]) == fingerprint_bytes(
                reference
            ), name
            # every backend performed the same number of operations
            assert results[name][0] == ops_done > 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fingerprints_stable_under_level2_verification(self, kernel):
        """Level-2 verification raises InvariantViolation on any heap or
        lock-discipline breakage; a clean run proves the optimised
        backends keep every invariant, and the fingerprint proves
        verification itself perturbs nothing."""
        ops = KERNEL_OPS[kernel]
        _, unverified = kernel_fingerprint(kernel, SEED, ops, "fast")
        with verify_level(2):
            for name in BACKENDS:
                _, verified = kernel_fingerprint(kernel, SEED, ops, name)
                assert fingerprint_bytes(verified) == fingerprint_bytes(
                    unverified
                ), name


class TestHostileDemographyEquivalence:
    """The adversarial and trace-calibrated workloads are built to be
    hostile (context-collision pressure, lifetime oscillation, bursts);
    the backends must still agree byte-for-byte — including under the
    compressed fuzz inference period and live level-2 verification."""

    # op counts chosen as the smallest that still drive GC cycles
    # through each demography (the traced heap is 96 MB, so it needs
    # more allocation to reach its first collection)
    @pytest.mark.parametrize(
        "workload,ops", [("adversarial", 1_500), ("traced-sample", 2_500)]
    )
    def test_fingerprints_byte_identical(self, workload, ops):
        fingerprints = {
            name: json.dumps(
                fuzz.fingerprint_workload(workload, SEED, ops, name),
                sort_keys=True,
            ).encode()
            for name in BACKENDS
        }
        reference = fingerprints["reference"]
        assert json.loads(reference)["gc_cycles"] > 0, "demography produced no GCs"
        for name in BACKENDS:
            assert fingerprints[name] == reference, name


class TestArtifactEquivalence:
    def run_cli(self, tmp_path, capsys, tag, argv, backend):
        json_dir = tmp_path / tag
        with backend_mode(backend):
            assert main(argv + ["--no-cache", "--json-dir", str(json_dir)]) == 0
        payloads = sorted(json_dir.glob("*.json"))
        assert payloads, "no JSON artifact written"
        return payloads[0].read_bytes(), rendered(capsys)

    def test_table1_byte_identical_across_backends(self, tmp_path, capsys):
        argv = ["table1", "--workloads", "lucene"]
        outputs = {
            name: self.run_cli(tmp_path, capsys, name, argv, name)
            for name in BACKENDS
        }
        for name in BACKENDS:
            assert outputs[name] == outputs["reference"], name
        assert "Table 1" in outputs["reference"][1]

    def test_fig6_byte_identical_across_backends(self, tmp_path, capsys):
        argv = ["fig6", "--benchmarks", "avrora"]
        outputs = {
            name: self.run_cli(tmp_path, capsys, name, argv, name)
            for name in BACKENDS
        }
        for name in BACKENDS:
            assert outputs[name] == outputs["reference"], name
        assert "Figure 6" in outputs["reference"][1]


class TestVerifiedModes:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fig6_level2_verify_clean(self, capsys, backend):
        with backend_mode(backend):
            assert main(["fig6", "--benchmarks", "avrora", "--verify"]) == 0
        assert "[verify] level 2: all invariant checks passed" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_table1_level2_verify_clean(self, capsys, backend):
        with backend_mode(backend):
            assert main(["table1", "--workloads", "lucene", "--verify"]) == 0
        assert "[verify] level 2: all invariant checks passed" in capsys.readouterr().err
