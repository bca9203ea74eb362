"""Figure 7 — Worst-case conflict resolution time vs P.

Paper targets: resolution time is inversely proportional to P; with
P=20% most benchmarks resolve within ~2 minutes and never beyond ~520 s
(the simulator's absolute times scale with its shorter GC intervals,
so the assertions check proportionality and ordering, not seconds).
"""

from conftest import save_artifact
from repro.bench.figures import figure7, render_figure7


def test_figure7():
    series = figure7()
    text = "[Figure 7] Worst-case conflict resolution time (ms)\n" + render_figure7(series)
    print()
    print(text)
    save_artifact("figure7", text)

    for name, row in series.items():
        fractions = sorted(row)
        # Monotone: higher P resolves (worst-case) no slower.
        for lower, higher in zip(fractions, fractions[1:]):
            assert row[lower] >= row[higher] - 1e-9, (name, row)
        # Inverse proportionality: P=5% within ~(4 +- 1.5)x of P=20%.
        if row[0.20] > 0:
            ratio = row[0.05] / row[0.20]
            assert 2.5 <= ratio <= 5.5, (name, ratio)
