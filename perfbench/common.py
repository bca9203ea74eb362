"""Process plumbing shared by the workloads: hermetic child
environments, spawning ``child.py`` and the pinned digests."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: (start, end) of a timed interval, in ``time.monotonic`` seconds
Span = Tuple[float, float]
CHILD = os.path.join(HERE, "child.py")
PINS = os.path.join(HERE, "pins.json")

#: every simulation runs at this ROLP_BENCH_SCALE
SCALE = "0.01"

#: switches that would change what the program runs; removed from every
#: child's environment so a user's shell cannot leak into the numbers
SCRUBBED_ENV = (
    "ROLP_BACKEND",
    "ROLP_FAST_PATHS",
    "ROLP_FLIGHT_RECORDER",
    "ROLP_STATIC_CHECK",
    "ROLP_BENCH_JOBS",
    "ROLP_BENCH_CACHE_DIR",
    "ROLP_BENCH_SCALE",
    "PYTHONPATH",
)

#: a child that has not answered by then is killed and its ops fail
CHILD_TIMEOUT_S = 150.0


def _program_cpu() -> Optional[int]:
    """The CPU every timed process runs on, or ``None`` where the OS
    cannot pin."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return max(os.sched_getaffinity(0))


#: every timed process runs pinned to this one CPU: the grid children,
#: the server, the load generator and the calibrator.  Left to the
#: scheduler, a server and its clients share or swap CPUs differently
#: from run to run, and the served latencies switch between two modes
#: 40 to 50 % apart.  Pinned to two different CPUs, every request
#: crosses between them twice, and the warm served latencies spread
#: 0.25 to 0.44 (IQR over median) over five runs, against 0.08 to 0.10
#: on one CPU.
PROGRAM_CPU = _program_cpu()


def pin_load() -> None:
    """Pin this process (the load generator) to the program CPU."""
    if PROGRAM_CPU is not None:
        os.sched_setaffinity(0, {PROGRAM_CPU})


def child_env(src: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["ROLP_BENCH_SCALE"] = SCALE
    env["PYTHONPATH"] = src
    return env


def child_command(
    mode: str, argv: List[str] = (), store_cache: Optional[str] = None, trace=False,
    pin=False, repeat: int = 1, for_s: float = 0.0,
) -> List[str]:
    """``pin`` runs the child on :data:`PROGRAM_CPU`."""
    command = [sys.executable, CHILD, "--mode", mode]
    if pin and PROGRAM_CPU is not None:
        command += ["--cpu", str(PROGRAM_CPU)]
    if store_cache:
        command += ["--store-cache", store_cache]
    if repeat != 1:
        command += ["--repeat", str(repeat)]
    if for_s:
        command += ["--for", str(for_s)]
    if trace:
        command.append("--trace")
    return command + ["--"] + list(argv)


class ChildResult:
    """What one finished child reported, with its spawn time."""

    def __init__(self, spawned: float, returncode: int, report: Optional[dict], stderr: str):
        self.spawned = spawned
        self.returncode = returncode
        self.report = report
        self.stderr = stderr

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and self.report is not None

    @property
    def setup_span(self) -> Span:
        """Spawn to ready, in ``time.monotonic`` seconds."""
        return self.spawned, self.report["ready"]


def parse_report(stdout: str) -> Optional[dict]:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_child(command: List[str], cwd: str, env: Dict[str, str]) -> ChildResult:
    """Run a child to completion; a timeout kills it and reads as a
    failed child."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        command,
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        universal_newlines=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
    except BaseException:  # SIGTERM or Ctrl-C: leave no child behind
        proc.kill()
        proc.wait()
        raise
        return ChildResult(spawned, -9, None, stderr)
    return ChildResult(spawned, proc.returncode, parse_report(stdout), stderr)


def load_pins() -> dict:
    with open(PINS) as handle:
        return json.load(handle)
