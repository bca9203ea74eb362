"""One fresh process of the benchmark: it imports ``repro`` and runs one
``rolp-bench`` command in-process, then prints one JSON line.

    python3 perfbench/child.py --mode probe [--cpu N]
    python3 perfbench/child.py --mode grid [--store-cache DIR] [--repeat N] [--for S] [--trace] -- fig8 ...
    python3 perfbench/child.py --mode serve [--trace] -- serve --port 0 ...

``probe`` only imports the program (a set-up sample).  ``grid`` runs the
command with its stdout captured and hashed; ``--store-cache`` then
writes every result the command computed into the result cache at
``DIR`` (after the timed run), so a ``--no-cache`` grid can be re-run
warm from a fresh process; ``--repeat`` runs the command that many
times, each time through a new ``Runner``, and ``--for`` keeps
repeating it until that many seconds have passed.  ``serve`` runs the
server until SIGINT.
``--trace`` installs the layer wrappers of :mod:`layers` before
anything else is built.  ``--cpu`` pins the process to one CPU first.

The parent (``run.py``) sets ``PYTHONPATH`` to the checkout's ``src``
and the working directory to a fresh scratch directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import signal
import sys
import time

from layers import LayerTracer, install

_CELL_LINE = re.compile(r"^\[runner\] \(\d+/\d+\) ")
_SUMMARY_LINE = re.compile(
    r"^\[runner\] cells: (\d+) \| cache hits: (\d+) \| misses: (\d+) \| "
    r"simulations executed: (\d+)"
)


class _Progress(io.TextIOBase):
    """Stands in for stderr during a grid: stamps each per-cell progress
    line the runner prints, keeps the runner's closing summary and
    passes nothing else through."""

    def __init__(self) -> None:
        self.cell_done = []
        self.summary = None
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = time.monotonic()
        lines = (self._partial + text).split("\n")
        self._partial = lines.pop()
        for line in lines:
            if _CELL_LINE.match(line):
                self.cell_done.append(now)
            match = _SUMMARY_LINE.match(line)
            if match:
                cells, hits, misses, sims = (int(g) for g in match.groups())
                self.summary = {
                    "cells": cells,
                    "cache_hits": hits,
                    "cache_misses": misses,
                    "simulations": sims,
                }
        return len(text)


def tree_digest(directory: str) -> str:
    """SHA-256 over every file under ``directory`` (names and bytes)."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                body = handle.read()
            rel = os.path.relpath(path, directory)
            digest.update(("%s\0%s\n" % (rel, hashlib.sha256(body).hexdigest())).encode())
    return digest.hexdigest()


def _json_dir(argv) -> str:
    return argv[argv.index("--json-dir") + 1]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _recording_runners(cli) -> list:
    """Keep every Runner the CLI builds, so their results can be stored
    after the run."""
    runners = []

    class RecordingRunner(cli.Runner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runners.append(self)

    cli.Runner = RecordingRunner
    return runners


def _store(runners, directory: str) -> None:
    from repro.bench.runner import ResultCache

    cache = ResultCache(directory)
    for runner in runners:
        for cell, result in runner._memo.items():
            cache.store(cell, runner.seed_for(cell), result)


def _run_grid(cli, argv) -> dict:
    out = io.StringIO()
    progress = _Progress()
    started = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(progress):
        status = cli.main(list(argv))
    ended = time.monotonic()
    return {
        "status": status,
        "start": started,
        "end": ended,
        "cell_done": progress.cell_done,
        "runner": progress.summary,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "json_sha256": tree_digest(_json_dir(argv)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("probe", "grid", "serve"), required=True)
    parser.add_argument("--store-cache", metavar="DIR")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--for", dest="for_s", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int)
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    tracer = None
    if args.trace:
        tracer = LayerTracer()
        install(tracer)
    from repro.bench import cli
    from repro.fastpath import backend

    result = {"ready": time.monotonic(), "backend": backend()}
    if args.mode == "grid":
        runners = _recording_runners(cli) if args.store_cache else []
        runs = result["runs"] = []
        started = time.monotonic()
        while len(runs) < args.repeat or time.monotonic() - started < args.for_s:
            runs.append(_run_grid(cli, args.argv))
        if args.store_cache:
            _store(runners, args.store_cache)
    elif args.mode == "serve":
        # the server stops on SIGINT; a parent started in the background
        # may have handed down SIGINT ignored
        signal.signal(signal.SIGINT, signal.default_int_handler)
        result["status"] = cli.main(list(args.argv))
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
