"""The ``served-sessions`` workload: a fresh ``rolp-bench serve`` driven
by a closed loop of two clients replaying a seeded session plan.

Every session is bound to one (workload, collector) pair and submits
``STEPS_PER_SESSION`` steps plus one whole-run job, in a seeded order.
Each pair has ``SESSIONS_PER_PAIR`` sessions, so three jobs in four
repeat a cell the server has already computed (a runner-memo hit) and
one in four simulates.  The set of distinct cells is the same for every
seed, so its expected payloads are pinned once in ``pins.json``; the
seed decides the order of sessions, which client replays them and where
each session's whole-run job falls.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import CHILD_TIMEOUT_S, Span, child_command, parse_report
from stats import OpLedger

#: two workloads and two collectors whose cells cost about the same
#: (g1 and ng2c cells are about a third cheaper than cms and rolp
#: ones), so the simulation tail is one mode whatever the seed
WORKLOADS = ("cassandra-wi", "cassandra-rw")
COLLECTORS = ("cms", "rolp")
STEPS_PER_SESSION = 14
SESSIONS_PER_PAIR = 4
OPERATIONS = 2_000
CLIENTS = 2
#: seconds a server gets to shut down cleanly after SIGINT before it is killed
STOP_TIMEOUT_S = 30.0
#: 429 answers are retried this many times before the job counts as failed
MAX_RETRIES = 50
REQUEST_TIMEOUT_S = 60.0
#: seconds of warm replays of the plan per server lifetime.  One replay
#: takes 0.25 to 0.4 s, so the latencies rest on thousands of requests.
WARM_SECONDS = 8.0
#: warm replays per traced server lifetime: a fixed number, so that the
#: counts of two traced lifetimes can be compared
TRACED_WARM_REPLAYS = 2

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


def job_id(workload: str, collector: str, step: Optional[int]) -> str:
    """The plan's name for a job's cell (``step=None`` is a whole run)."""
    return "%s/%s/%s" % (workload, collector, "run" if step is None else "step-%d" % step)


def vocabulary() -> List[Tuple[str, str, str, Optional[int]]]:
    """Every distinct cell any plan submits: ``(job id, workload,
    collector, step)``."""
    return [
        (job_id(w, c, step), w, c, step)
        for w in WORKLOADS
        for c in COLLECTORS
        for step in [None] + list(range(STEPS_PER_SESSION))
    ]


@dataclass
class Session:
    workload: str
    collector: str
    #: ``None`` for the whole-run job, else the step index
    jobs: List[Optional[int]]


def session_plan(seed: int) -> List[Session]:
    rng = random.Random(seed)
    sessions = []
    for workload in WORKLOADS:
        for collector in COLLECTORS:
            for _ in range(SESSIONS_PER_PAIR):
                jobs: List[Optional[int]] = list(range(STEPS_PER_SESSION))
                jobs.insert(rng.randrange(len(jobs) + 1), None)
                sessions.append(Session(workload, collector, jobs))
    rng.shuffle(sessions)
    return sessions


def canonical_sha256(payload) -> str:
    """SHA-256 of the canonical job payload bytes (sorted keys, compact)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


# --------------------------------------------------------------------- client

def _request(port: int, method: str, path: str, body=None) -> Tuple[Optional[int], bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json", "Connection": "close"}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return None, b""
    finally:
        conn.close()


def _field(raw: bytes, *path: str):
    """``raw`` parsed as JSON and indexed by ``path``; ``None`` when the
    body is not JSON or lacks the field."""
    try:
        value = json.loads(raw)
        for key in path:
            value = value[key]
    except (ValueError, KeyError, TypeError):
        return None
    return value


@dataclass
class ReplayResult:
    #: spans are (start, end) in ``time.monotonic`` seconds
    span: Span = (0.0, 0.0)
    #: send to full reply of every completed job request
    requests: List[Span] = field(default_factory=list)
    jobs_completed: int = 0
    problems: List[str] = field(default_factory=list)


class _Client:
    def __init__(self, port: int, expected: Dict[str, str]) -> None:
        self.port = port
        self.expected = expected
        self.ledger = OpLedger()
        self.requests: List[Span] = []
        self.completed = 0
        self.problems: List[str] = []

    def replay(self, sessions: List[Session]) -> None:
        for session in sessions:
            self._session(session)

    def _session(self, session: Session) -> None:
        status, raw = _request(
            self.port,
            "POST",
            "/v1/sessions",
            {
                "workload": session.workload,
                "collector": session.collector,
                "operations": OPERATIONS,
            },
        )
        sid = _field(raw, "session", "id") if status == 201 else None
        self.ledger.record_request(status, sid is not None)
        if sid is None:
            self.problems.append("create -> %r" % status)
            self.ledger.record(False, len(session.jobs) + 1)
            return
        for step in session.jobs:
            self._job(sid, session, step)
        status, _ = _request(self.port, "DELETE", "/v1/sessions/%s" % sid)
        self.ledger.record_request(status)

    def _job(self, sid: str, session: Session, step: Optional[int]) -> None:
        action, body = ("run", {}) if step is None else ("step", {"ops": OPERATIONS})
        path = "/v1/sessions/%s/%s" % (sid, action)
        for attempt in range(MAX_RETRIES + 1):
            sent = time.monotonic()
            status, raw = _request(self.port, "POST", path, body)
            answered = time.monotonic()
            if status != 429:
                break
            time.sleep(min(0.1, 0.002 * (1 << min(attempt, 6))))
        key = job_id(session.workload, session.collector, step)
        matches = False
        if status == 200:
            got = canonical_sha256(_field(raw, "job"))
            matches = got == self.expected.get(key)
            if not matches:
                self.problems.append("%s payload %s != pinned" % (key, got[:12]))
        else:
            self.problems.append("%s -> %r" % (key, status))
        self.ledger.record_request(status, matches)
        if status == 200:
            self.completed += 1
            self.requests.append((sent, answered))


def replay(port: int, plan: List[Session], expected: Dict[str, str], ledger: OpLedger) -> ReplayResult:
    """Replay ``plan`` with a closed loop of :data:`CLIENTS` clients,
    each taking every other session."""
    clients = [_Client(port, expected) for _ in range(CLIENTS)]
    threads = [
        threading.Thread(target=client.replay, args=(plan[i::CLIENTS],))
        for i, client in enumerate(clients)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result = ReplayResult(span=(started, time.monotonic()))
    for client in clients:
        ledger.attempted += client.ledger.attempted
        ledger.failed += client.ledger.failed
        result.requests.extend(client.requests)
        result.jobs_completed += client.completed
        result.problems.extend(client.problems)
    return result


# --------------------------------------------------------------------- server

class ServerStartError(Exception):
    """The server child exited or stayed unhealthy before serving."""


class Server:
    """A ``rolp-bench serve`` child with default flags, an ephemeral
    port and its own empty cache directory."""

    def __init__(self, workdir: str, env: Dict[str, str], trace: bool = False) -> None:
        self.scratch = tempfile.mkdtemp(prefix="serve-", dir=workdir)
        argv = ["serve", "--port", "0", "--cache-dir", os.path.join(self.scratch, "cache")]
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            child_command("serve", argv, trace=trace, pin=True),
            cwd=self.scratch,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            universal_newlines=True,
        )
        self._stderr: List[str] = []
        self._port: Optional[int] = None
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            self.port = self._wait_listening()
            self.setup_span = (self.spawned, self._wait_healthy())
        except BaseException:  # a failed start, SIGTERM or Ctrl-C
            self.stop()
            raise

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)
            match = _LISTENING.search(line)
            if match:
                self._port = int(match.group(2))
                self._listening.set()
        self._listening.set()

    def _wait_listening(self) -> int:
        if not self._listening.wait(CHILD_TIMEOUT_S) or self._port is None:
            raise ServerStartError("server never listened: %s" % "".join(self._stderr[-5:]))
        return self._port

    def _wait_healthy(self) -> float:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while time.monotonic() < deadline:
            status, _ = _request(self.port, "GET", "/healthz")
            if status == 200:
                return time.monotonic()
            time.sleep(0.005)
        raise ServerStartError("server never became healthy")

    def stop(self) -> Optional[dict]:
        """SIGINT (the server's own clean shutdown), then its report."""
        report = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            stdout, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
            report = parse_report(stdout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._reader.join(timeout=5)
        shutil.rmtree(self.scratch, ignore_errors=True)
        return report if self.proc.returncode == 0 else None


@dataclass
class ServedCycle:
    """One server lifetime: a cold replay, then replays of the same plan
    against the warm server, where every job is a memo hit, for
    :data:`WARM_SECONDS` (or :data:`TRACED_WARM_REPLAYS` of them when
    traced)."""

    setup: Span
    cold: ReplayResult
    warm: List[ReplayResult]
    report: Optional[dict]

    @property
    def replays(self) -> List[ReplayResult]:
        return [self.cold] + self.warm

    @property
    def duration_s(self) -> float:
        return sum(b - a for a, b in [self.setup] + [r.span for r in self.replays])


def served_cycle(
    seed: int, workdir: str, env: Dict[str, str], expected: Dict[str, str],
    ledger: OpLedger, trace: bool = False,
) -> ServedCycle:
    plan = session_plan(seed)
    server = Server(workdir, env, trace=trace)
    try:
        cold = replay(server.port, plan, expected, ledger)
        warm: List[ReplayResult] = []
        started = time.monotonic()
        while (
            len(warm) < TRACED_WARM_REPLAYS
            if trace
            else not warm or time.monotonic() - started < WARM_SECONDS
        ):
            warm.append(replay(server.port, plan, expected, ledger))
    finally:
        report = server.stop()
    if report is None:
        cold.problems.append("server exited uncleanly")
        ledger.record(False)
    return ServedCycle(server.setup_span, cold, warm, report)


def probe_setup(workdir: str, env: Dict[str, str]) -> Span:
    server = Server(workdir, env)
    server.stop()
    return server.setup_span
