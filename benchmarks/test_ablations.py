"""Ablation benches for the design choices DESIGN.md calls out
(survivor-tracking shutdown, package filters, 16-vs-2 generations,
unsynchronized OLD-table updates, allocation sampling, and the
offline-profiling baseline)."""

from conftest import save_artifact
from repro.bench.ablations import (
    ablation_allocation_sampling,
    ablation_generations,
    ablation_increment_loss,
    ablation_offline_profile,
    ablation_package_filters,
    ablation_survivor_tracking,
    render_ablation,
)


def test_ablation_survivor_tracking():
    results = ablation_survivor_tracking()
    print()
    text = render_ablation(results, "[Ablation] survivor-tracking shutdown (7.4)")
    print(text)
    save_artifact("ablation_survivor_tracking", text)
    dynamic, always_on = results
    # The controller actually shut tracking down at least once.
    assert dynamic.extra["shutdowns"] >= 1
    # Dynamic shutdown cannot be slower at the median than always-on by
    # more than noise (it removes per-survivor pause cost).
    assert dynamic.p50_ms <= always_on.p50_ms * 1.10


def test_ablation_package_filters():
    results = ablation_package_filters()
    print()
    text = render_ablation(results, "[Ablation] package filters (7.3)")
    print(text)
    save_artifact("ablation_package_filters", text)
    filtered, everything = results
    # Filters bound the instrumentation surface...
    assert filtered.extra["profiled_sites"] <= everything.extra["profiled_sites"]
    # ...and with it the mutator-side profiling tax.
    assert filtered.extra["profiling_tax_ms"] <= everything.extra["profiling_tax_ms"]


def test_ablation_generations():
    results = ablation_generations()
    print()
    text = render_ablation(results, "[Ablation] 16 generations vs binary (9)")
    print(text)
    save_artifact("ablation_generations", text)
    sixteen, binary = results
    # Multiple generations beat the binary young/old decision at the
    # tail: the binary variant co-locates different lifetimes in the
    # old space and pays compaction for it.
    assert sixteen.p999_ms <= binary.p999_ms * 1.05


def test_ablation_allocation_sampling():
    results = ablation_allocation_sampling()
    print()
    text = render_ablation(results, "[Ablation] allocation sampling (8.5)")
    print(text)
    save_artifact("ablation_allocation_sampling", text)
    full, quarter, sixteenth = results
    # The profiling tax falls monotonically with the sampling rate...
    assert full.extra["profiling_tax_ms"] >= quarter.extra["profiling_tax_ms"]
    assert quarter.extra["profiling_tax_ms"] >= sixteenth.extra["profiling_tax_ms"]
    # ...while unsampled allocations are actually skipped...
    assert sixteenth.extra["skipped"] > quarter.extra["skipped"] > 0
    # ...and decisions still get made at moderate rates.
    assert quarter.extra["advice"] >= 1


def test_ablation_offline_profile():
    results = ablation_offline_profile()
    print()
    text = render_ablation(results, "[Ablation] offline (POLM2) vs online (ROLP)")
    print(text)
    save_artifact("ablation_offline_profile", text)
    online, offline = results
    # The static profile carries real decisions and costs nothing.
    assert offline.extra["profile_sites"] >= 1
    assert offline.extra["profiling_tax_ms"] == 0.0
    assert online.extra["profiling_tax_ms"] > 0
    # With the workload unchanged, offline replay is at least as good at
    # the median (no warmup) — the advantage ROLP trades for coping with
    # unknown workloads.
    assert offline.p50_ms <= online.p50_ms * 1.1


def test_ablation_increment_loss():
    results = ablation_increment_loss()
    print()
    text = render_ablation(results, "[Ablation] OLD increment loss (7.6)")
    print(text)
    save_artifact("ablation_increment_loss", text)
    clean = results[0]
    # The paper's claim: losing a small fraction of unsynchronized
    # increments does not change profiling decisions.
    for lossy in results[1:3]:
        assert lossy.extra["advice"] == clean.extra["advice"], lossy
    # The model does actually lose increments when told to.
    assert results[-1].extra["lost"] > 0
