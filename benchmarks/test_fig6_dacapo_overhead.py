"""Figure 6 — DaCapo execution time normalized to G1 at the four
profiling levels (no-call / fast-call / real / slow-call).

Paper targets: overheads are benchmark-dependent (alloc-heavy vs
call-heavy); real-profiling tracks fast-call-profiling closely (few
call sites actually enabled); slow-call-profiling is the worst case;
no benchmark blows past ~25%.
"""

from conftest import save_artifact
from repro.bench.figures import FIG6_MODES, figure6, render_figure6


def test_figure6():
    series = figure6()
    text = "[Figure 6] DaCapo execution time normalized to G1\n" + render_figure6(series)
    print()
    print(text)
    save_artifact("figure6", text)

    for name, row in series.items():
        # Ordering: none <= fast <= slow; real between fast and slow.
        assert row["none"] <= row["fast"] + 0.01, (name, row)
        assert row["fast"] <= row["slow"] + 0.01, (name, row)
        assert row["real"] <= row["slow"] + 0.01, (name, row)
        # Real-profiling hugs the fast branch (paper's key observation).
        assert row["real"] - row["fast"] <= 0.02, (name, row)
        # Bounded overhead (paper: worst benchmarks ~10-25%).
        assert row["slow"] <= 1.30, (name, row)
        # Profiling always costs something.
        assert row["none"] >= 0.99, (name, row)
