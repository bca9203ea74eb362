"""Table 1 — Big Data benchmark profiling summary.

Paper targets: profiling effort bounded by hot-code-only instrumentation
and package filters; conflicts rare (Cassandra 2, GraphChi 3, Lucene 0);
OLD table at most 16 MB; far fewer ROLP-side actions than NG2C's hand
annotations require.
"""

from conftest import save_artifact
from repro.bench.tables import render_table1, table1


def test_table1():
    rows = table1()
    text = "[Table 1] Big Data benchmark profiling summary\n" + render_table1(rows)
    print()
    print(text)
    save_artifact("table1", text)

    by_name = {r.workload: r for r in rows}

    # Conflicts are rare (paper: <= 3 per workload).
    for row in rows:
        assert row.conflicts <= 4, row

    # Cassandra's factory conflicts (Table 1 reports 2 per mix).  At
    # simulator scale the per-mix count varies by 1: a flickering
    # conflict can be advised via its merged context before the
    # debounce confirms it, and the read-intensive mix may surface one
    # extra genuinely-bimodal site (compaction cadence).
    for name in ("cassandra-wi", "cassandra-rw", "cassandra-ri"):
        assert 1 <= by_name[name].conflicts <= 3, by_name[name]
    assert any(
        by_name[name].conflicts >= 2
        for name in ("cassandra-wi", "cassandra-rw", "cassandra-ri")
    )

    # Lucene has no cross-lifetime factory sharing (Table 1 reports 0).
    assert by_name["lucene"].conflicts == 0, by_name["lucene"]

    # OLD table memory stays small (paper: <= 16 MB).
    for row in rows:
        assert row.old_table_mb <= 16.0, row

    # ROLP needs no annotations; NG2C needs several per workload.
    for row in rows:
        assert row.ng2c_annotations >= 3, row
