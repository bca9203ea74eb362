"""Ahead-of-time context-conflict analyzer (see
``docs/static-analysis.md``).

:mod:`repro.analysis.staticcheck.contexts` builds a static call graph
from each method body's source, symbolically executes the 32-bit
context encoding and predicts a collision class per allocation site;
the prediction is cross-validated against the runtime profiler's
observed conflicts stream.

Entry points: ``rolp-bench staticcheck`` (CLI report) and the fuzz
harness's static conflict predictor (:func:`static_conflict_pressure`).
"""

from repro.analysis.staticcheck.contexts import (
    CONFLICT_HEAVY_MIN,
    PATH_CAP,
    WorkloadAnalysis,
    analyze_genome,
    analyze_workload,
    collect_methods,
    method_shape,
    observed_conflict_site_ids,
    observed_conflicts,
    static_conflict_pressure,
    validate_against_runtime,
)
from repro.analysis.staticcheck.report import (
    SCHEMA,
    build_workload,
    check_workload,
    render_report,
    run_staticcheck,
)

__all__ = [
    "CONFLICT_HEAVY_MIN",
    "PATH_CAP",
    "SCHEMA",
    "WorkloadAnalysis",
    "analyze_genome",
    "analyze_workload",
    "build_workload",
    "check_workload",
    "collect_methods",
    "method_shape",
    "observed_conflict_site_ids",
    "observed_conflicts",
    "render_report",
    "run_staticcheck",
    "static_conflict_pressure",
    "validate_against_runtime",
]
