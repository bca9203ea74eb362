"""Host-speed calibration: time fixed slices of Python work on the CPU
the program runs on, while it runs, and scale the program's host times
to a reference speed.

The reference machine is a VM on a shared host.  Its speed switches
from one second to the next between two levels about 1.8x apart, and
it can stay at the slow level for minutes to hours at a time.  A time measured on it
moves with the host as much as with the program.  So a calibrator
process pinned to the program's CPU wakes every :data:`INTERVAL_S`,
runs :func:`kernel` once and records when it ran and the CPU time it
took.  The scheduler runs the calibrator as soon as it wakes, so the
slices sample the host's speed throughout the run at the moment the
program experiences it.  A span ``[a, b]`` of the program is then
measured as its host time less the slices that ran inside it (the
program waited for them), scaled by ``REFERENCE_S / (mean slice CPU
time around [a, b])``: the time the same work would take at the speed
where one slice takes :data:`REFERENCE_S`.

The kernel imports nothing from ``repro``, so a change to the program
cannot change it.

    python3 perfbench/calib.py --cpu N     # until its stdin closes
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import select
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Tuple

#: seconds between two slices
INTERVAL_S = 0.02

#: CPU seconds one slice takes at the reference speed: about the fast
#: level of the reference machine
REFERENCE_S = 0.0004

#: slices within this many seconds of an interval also count for it,
#: so a short interval still has about ten slices around it
WINDOW_S = 0.1

#: a calibrator that has not stopped by then is killed
STOP_TIMEOUT_S = 10.0


class _Item:
    __slots__ = ("key", "weight", "children")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight
        self.children: List["_Item"] = []

    def add(self, child: "_Item") -> None:
        self.children.append(child)

    def total(self) -> int:
        return self.weight + sum(child.weight for child in self.children)


def kernel(rounds: int = 400) -> int:
    """A fixed slice of interpreter work in the style of the simulator:
    small objects with slots, method calls, attribute access, dict and
    list traffic.  About 0.4 ms at the reference speed."""
    table = {}
    live: List[_Item] = []
    acc = 0
    for i in range(rounds):
        item = _Item(i, i % 7)
        parent = table.get((i * 31) % 53)
        if parent is not None:
            parent.add(item)
            acc += parent.total()
        table[i % 53] = item
        live.append(item)
        if len(live) > 40:
            acc += live.pop(0).key
    return acc


def _serve(cpu: Optional[int]) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    samples: List[Slice] = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        began, cpu = time.monotonic(), time.thread_time()
        kernel()
        samples.append((began, time.monotonic(), time.thread_time() - cpu))
    sys.stdout.write(json.dumps(samples) + "\n")


#: one slice: when it began and ended (``time.monotonic``), and the CPU
#: seconds it took
Slice = Tuple[float, float, float]


class Calibration:
    """The slices of one run, to scale host times by."""

    def __init__(self, samples: Sequence[Slice]) -> None:
        ordered = sorted(samples)
        self.begins = [s[0] for s in ordered]
        self.ends = [s[1] for s in ordered]
        self.cpu = [s[2] for s in ordered]

    def factor(self, a: float, b: float) -> float:
        """``REFERENCE_S`` over the mean slice CPU time around ``[a, b]``
        (the nearest slice when none is that close)."""
        lo = bisect.bisect_left(self.begins, a - WINDOW_S)
        hi = bisect.bisect_right(self.begins, b + WINDOW_S)
        if lo == hi:
            nearest = min(lo, len(self.cpu) - 1)
            lo, hi = nearest, nearest + 1
        return REFERENCE_S * (hi - lo) / sum(self.cpu[lo:hi])

    def inside(self, a: float, b: float) -> float:
        """Seconds of slices that ran inside ``[a, b]``."""
        total = 0.0
        # slices do not overlap, so only the one before the first that
        # begins in [a, b] can reach into it from the left
        i = max(bisect.bisect_left(self.begins, a) - 1, 0)
        while i < len(self.begins) and self.begins[i] < b:
            total += max(0.0, min(b, self.ends[i]) - max(a, self.begins[i]))
            i += 1
        return total

    def scale(self, a: float, b: float) -> float:
        """The program's time from ``a`` to ``b`` at the reference speed."""
        return (b - a - self.inside(a, b)) * self.factor(a, b)


class Calibrator:
    """A calibrator process for the length of a ``with`` block."""

    def __init__(self, cpu: Optional[int]) -> None:
        self.cpu = cpu
        self.proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "Calibrator":
        command = [sys.executable, os.path.abspath(__file__)]
        if self.cpu is not None:
            command += ["--cpu", str(self.cpu)]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, universal_newlines=True
        )
        return self

    def finish(self) -> Optional[Calibration]:
        """Stop the calibrator; its slices, or ``None`` if it failed or
        took none."""
        if self.proc is None:
            return None
        proc, self.proc = self.proc, None
        try:
            stdout, _ = proc.communicate(input="", timeout=STOP_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        try:
            samples = json.loads(stdout)
        except ValueError:
            return None
        return Calibration(samples) if proc.returncode == 0 and samples else None

    def __exit__(self, *exc) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None


def main() -> int:
    parser = argparse.ArgumentParser(description="Time kernel slices until stdin closes.")
    parser.add_argument("--cpu", type=int)
    _serve(parser.parse_args().cpu)
    return 0


if __name__ == "__main__":
    sys.exit(main())
