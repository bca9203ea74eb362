"""Figure 9 — Number of application pauses per duration interval.

Paper targets: the fewer pauses in the rightmost (longest) intervals
the better; ROLP and NG2C keep essentially all pauses in the shortest
intervals while G1 and CMS populate the long ones.
"""

from conftest import save_artifact
from repro.bench.figures import render_figure9


def _long_pause_count(histogram, threshold_label_index: int = 2) -> int:
    """Pauses in buckets at or beyond the given bucket index."""
    return sum(count for _, count in histogram[threshold_label_index:])


def test_figure9(pause_studies):
    studies = pause_studies
    text = render_figure9(studies)
    print()
    print(text)
    save_artifact("figure9", text)

    for study in studies:
        histograms = study.histograms()
        g1_long = _long_pause_count(histograms["g1"])
        cms_long = _long_pause_count(histograms["cms"])
        ng2c_long = _long_pause_count(histograms["ng2c"])
        rolp_long = _long_pause_count(histograms["rolp"])

        # Pretenuring moves pauses out of the long buckets.
        assert ng2c_long <= g1_long, study.workload
        assert rolp_long <= max(g1_long, cms_long), study.workload

        # NG2C/ROLP keep nearly everything in the shortest bucket.
        total_ng2c = sum(count for _, count in histograms["ng2c"])
        if total_ng2c:
            short = histograms["ng2c"][0][1] + histograms["ng2c"][1][1]
            assert short / total_ng2c >= 0.95, study.workload
