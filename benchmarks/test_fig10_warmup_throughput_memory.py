"""Figure 10 — Cassandra WI warmup pause timeline (left), throughput
(middle) and max memory (right) normalized to G1.

Paper targets: ROLP's pauses step down once the profiler stabilizes
(~350 s of a 30-minute run; proportionally earlier here); ROLP/NG2C
throughput within a few percent of G1 while ZGC pays its barrier tax;
ROLP/NG2C memory ~= G1 while ZGC needs noticeably more.
"""

import statistics

from conftest import save_artifact
from repro.bench.figures import figure10, render_figure10


def test_figure10():
    study = figure10()
    text = render_figure10(study)
    print()
    print(text)
    save_artifact("figure10", text)

    # -- warmup shape: late pauses much shorter than early pauses -------
    timeline = study.rolp_timeline
    assert timeline, "ROLP run recorded no pauses"
    end = timeline[-1][0]
    early = [d for t, d in timeline if t < end * 0.3]
    late = [d for t, d in timeline if t > end * 0.7]
    assert early and late
    assert statistics.median(late) < statistics.median(early) * 0.8

    # The profiler eventually stops changing decisions (stabilizes).
    changes = study.decision_changes
    assert changes, "no inference passes ran"
    assert sum(changes[-2:]) <= sum(changes[:2]), changes

    # -- throughput normalized to G1 ------------------------------------
    thr = study.throughput_norm
    # ROLP within the paper's <6% envelope of the best pretenurer, and
    # never below ZGC's barrier-taxed throughput.
    assert thr["rolp"] >= 0.90, thr
    assert thr["zgc"] <= thr["rolp"], thr
    assert thr["ng2c"] >= 0.95, thr

    # -- max memory normalized to G1 -------------------------------------
    # ROLP/NG2C track each other closely; at this simulator scale each
    # dynamic generation's partially-filled region is a visible (~1 MB)
    # overhead that would be negligible at the paper's 6 GB heaps, so
    # the bound is looser than the paper's ~1.0 (see EXPERIMENTS.md).
    mem = study.memory_norm
    assert mem["rolp"] <= 1.5, mem
    assert abs(mem["rolp"] - mem["ng2c"]) <= 0.25, mem
    assert mem["zgc"] >= mem["rolp"], mem   # concurrent GC needs headroom
    assert mem["zgc"] >= 1.4, mem           # paper: ZGC's memory cost is large
