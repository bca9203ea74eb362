"""``rolp-bench staticcheck``: the context-conflict analyzer's report.

The analyzer's predictions are pinned against the runtime profiler in
``test_staticcheck_crossval.py``; this module covers the command line
and the report schema.
"""

import json

from repro.analysis.staticcheck import SCHEMA, render_report, run_staticcheck
from repro.bench import cli


class TestCommandLine:
    def test_staticcheck_exits_zero_on_shipped_workloads(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(
            ["staticcheck", "--workloads", "lucene", "--report-out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == SCHEMA == "rolp-bench/staticcheck/v2"
        assert sorted(report) == ["corpus", "schema", "totals", "workloads"]
        assert [entry["name"] for entry in report["workloads"]] == ["lucene"]
        assert report["workloads"][0]["methods"] > 0
        assert "ahead-of-time context-conflict analyzer" in capsys.readouterr().out

    def test_full_report_over_every_registered_workload(self):
        report = run_staticcheck()
        names = [entry["name"] for entry in report["workloads"]]
        assert "cassandra-wi" in names and "adversarial" in names
        totals = report["totals"]
        assert totals["predicted_conflict_sites"] > 0
        # the banked corpus holds the conflict-objective winner
        assert totals["conflict_heavy_genomes"] >= 1
        assert any(entry["conflict_heavy"] for entry in report["corpus"])
        text = render_report(report)
        assert "%d predicted conflict site(s)" % totals["predicted_conflict_sites"] in text
        assert "CONFLICT-HEAVY" in text
