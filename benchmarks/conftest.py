"""Shared benchmark configuration.

Every benchmark honours ``ROLP_BENCH_SCALE`` (see
:mod:`repro.bench.config`): the default regenerates the paper's shapes
in minutes; ``ROLP_BENCH_SCALE=0.2`` gives a quick smoke pass.  The
shared pause-study runs additionally honour ``ROLP_BENCH_JOBS`` (worker
processes) and ``ROLP_BENCH_CACHE_DIR`` (per-cell result cache) — see
docs/benchmarking.md.

Each benchmark regenerates its artifact once and asserts the paper's
shape on it; host-time speed is measured by ``perfbench/``.
"""

import os

import pytest

from repro.bench.figures import pause_study
from repro.bench.runner import ResultCache, Runner

#: rendered tables/figures are also written here so they survive
#: pytest's output capture (EXPERIMENTS.md references these files)
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "bench_results")

_PAUSE_STUDIES = []


def save_artifact(name, text):
    """Persist a rendered table/figure under bench_results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s.txt" % name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


@pytest.fixture(scope="session")
def pause_studies():
    """Figures 8 and 9 share one (expensive) set of runs: every large
    workload under every compared collector."""
    if not _PAUSE_STUDIES:
        cache_dir = os.environ.get("ROLP_BENCH_CACHE_DIR")
        runner = Runner(
            jobs=int(os.environ.get("ROLP_BENCH_JOBS", "1")),
            cache=ResultCache(cache_dir) if cache_dir else None,
        )
        _PAUSE_STUDIES.extend(pause_study(runner=runner))
    return _PAUSE_STUDIES

