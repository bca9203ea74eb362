"""Record the expected output digests in ``perfbench/pins.json``.

Run from the root of a checkout whose outputs are known good::

    python3 perfbench/pin.py --seeds 42 1 2 3      # grid digests per seed
    python3 perfbench/pin.py --served              # served-cell payloads

Grid pins are the SHA-256 of a grid's rendered stdout and of its
``--json-dir`` tree, per base seed.  Served pins are the SHA-256 of the
canonical payload the serial ``Runner`` computes for every cell a
session plan can submit (the server's default base seed).  A seed that
is already pinned must reproduce its digests; this tool never silently
moves a pin.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import shutil

from common import PINS, child_env
from grids import GRIDS, grid_pass
import served

#: the base seed ``rolp-bench serve`` uses with default flags
SERVER_BASE_SEED = 42


def _served_pins() -> dict:
    """Runs inside a child whose PYTHONPATH is the checkout's src."""
    from repro.bench.runner import make_cell
    from repro.server.jobs import expected_payloads

    vocab = served.vocabulary()
    cells = [
        make_cell("trace_run", workload=w, collector=c, operations=served.OPERATIONS)
        if step is None
        else make_cell(
            "session_step", workload=w, collector=c, operations=served.OPERATIONS, step=step
        )
        for _, w, c, step in vocab
    ]
    payloads = expected_payloads(cells, SERVER_BASE_SEED)
    return {key: served.canonical_sha256(p) for (key, _, _, _), p in zip(vocab, payloads)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[])
    parser.add_argument("--served", action="store_true")
    parser.add_argument("--served-worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.served_worker:
        print(json.dumps(_served_pins()))
        return 0

    src = os.path.join(os.getcwd(), "src")
    env = child_env(src)
    with open(PINS) as handle:
        pins = json.load(handle)
    status = 0
    workdir = tempfile.mkdtemp(prefix=".perfbench-pin-", dir=os.getcwd())
    try:
        for seed in args.seeds:
            done = set()
            for name, spec in GRIDS.items():
                if spec.pin_key in done:
                    continue
                done.add(spec.pin_key)
                result = grid_pass(spec, seed, workdir, env, expected=None)
                if not result.ok:
                    print("pin: %s seed %d failed: %s" % (name, seed, result.problems))
                    status = 1
                    continue
                table = pins["grids"].setdefault(spec.pin_key, {})
                old = table.get(str(seed))
                if old is not None and old != result.digests:
                    print("pin: %s seed %d moved: %s -> %s" % (name, seed, old, result.digests))
                    status = 1
                    continue
                table[str(seed)] = result.digests
                print("pin: %s seed %d %s" % (spec.pin_key, seed, result.digests))
        if args.served:
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--served-worker"],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            fresh = json.loads(out.splitlines()[-1])
            moved = [k for k, v in pins["served"].items() if fresh.get(k) != v]
            if moved:
                print("pin: served payloads moved: %s" % ", ".join(moved))
                status = 1
            else:
                pins["served"] = fresh
                print("pin: %d served payloads" % len(fresh))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
