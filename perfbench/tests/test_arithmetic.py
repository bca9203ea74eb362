"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from calib import REFERENCE_S, Calibration  # noqa: E402
from grids import cell_spans, check_digests  # noqa: E402
from layers import LayerTracer  # noqa: E402
from run import Outcome, Spans, reduce_spans, result_document  # noqa: E402
from served import session_plan, vocabulary, job_id  # noqa: E402
from stats import (  # noqa: E402
    OpLedger,
    beyond,
    count_mismatches,
    layer_metrics,
    percentile,
    tail_percentile,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestPercentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 95), 95)
        self.assertEqual(percentile(values, 100), 100)
        self.assertEqual(percentile([7.0], 95), 7.0)

    def test_tail_needs_ten_samples_beyond(self):
        # 200 samples: p95 leaves exactly 10 beyond, p99 only 2
        values = [float(i) for i in range(200)]
        self.assertEqual(beyond(200, 95), 10)
        self.assertEqual(tail_percentile(values), (95.0, 189.0, 200))
        # one sample fewer and p95 has only 9 beyond: p90 is the tail
        q, _, n = tail_percentile(values[:199])
        self.assertEqual((q, n), (90.0, 199))
        # 1000 samples reach p99 (10 beyond) but not p99.9 (1 beyond)
        self.assertEqual(tail_percentile(list(range(1000)))[0], 99.0)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(tail_percentile([1.0] * 19))
        self.assertEqual(tail_percentile([1.0] * 20)[0], 50.0)


class TestSelfTime(unittest.TestCase):
    def test_nested_spans_of_different_layers(self):
        clock = FakeClock()
        tracer = LayerTracer(clock=clock)

        def heap_allocate(_obj):
            clock.now += 2.0

        def gc_allocate(obj):
            clock.now += 1.0
            heap(obj)
            clock.now += 3.0

        def runtime_call(obj):
            clock.now += 5.0
            gc(obj)
            clock.now += 0.5

        heap = tracer.wrap_method("heap", "allocate", heap_allocate)
        gc = tracer.wrap_method("gc", "allocate", gc_allocate)
        call = tracer.wrap_method("runtime", "call", runtime_call)
        call(object())

        entries = tracer.entries()
        self.assertEqual(entries[("runtime", "call")], (1, 5.5))
        self.assertEqual(entries[("gc", "allocate")], (1, 4.0))
        self.assertEqual(entries[("heap", "allocate")], (1, 2.0))
        metrics = layer_metrics(tracer.snapshot())
        self.assertEqual(metrics["runtime.self_s"], 5.5)
        self.assertEqual(metrics["gc.self_s"], 4.0)
        self.assertEqual(metrics["heap.self_s"], 2.0)
        # self times add up to the outermost span's duration
        self.assertEqual(sum(s for _, s in entries.values()), clock.now)

    def test_a_layer_reentered_through_another(self):
        clock = FakeClock()
        tracer = LayerTracer(clock=clock)

        def inner_call(_obj):
            clock.now += 1.0

        def collect(obj):
            clock.now += 2.0
            inner(obj)

        def outer_call(obj):
            clock.now += 4.0
            gc(obj)

        inner = tracer.wrap_method("runtime", "call", inner_call)
        gc = tracer.wrap_method("gc", "collect_young", collect, group="gc.collect")
        outer = tracer.wrap_method("runtime", "call", outer_call)
        outer(object())
        metrics = layer_metrics(tracer.snapshot())
        self.assertEqual(metrics["runtime.self_s"], 5.0)
        self.assertEqual(metrics["gc.self_s"], 2.0)
        self.assertEqual(metrics["gc.collect_s"], 3.0)
        self.assertEqual(metrics["runtime.calls"], 2)

    def test_override_chain_counts_once(self):
        clock = FakeClock()
        tracer = LayerTracer(clock=clock)

        class Base:
            def collect_full(self):
                clock.now += 1.0

        class Child(Base):
            def collect_full(self):
                clock.now += 1.0
                super().collect_full()

        for cls in (Base, Child):
            fn = cls.__dict__["collect_full"]
            setattr(cls, "collect_full", tracer.wrap_method("gc", "collect_full", fn))
        Child().collect_full()
        Base().collect_full()
        self.assertEqual(tracer.entries()[("gc", "collect_full")], (2, 3.0))


class TestErrorRate(unittest.TestCase):
    def test_refusals_and_mismatches_fail(self):
        ledger = OpLedger()
        ledger.record_request(200)
        ledger.record_request(201)
        ledger.record_request(429)  # still refused after its retries
        ledger.record_request(None)  # no answer at all
        ledger.record_request(200, matches=False)  # wrong bytes
        ledger.record_request(500)
        self.assertEqual((ledger.attempted, ledger.failed), (6, 4))
        self.assertAlmostEqual(ledger.error_rate, 4 / 6)

    def test_cells_count_by_pass(self):
        ledger = OpLedger()
        ledger.record(True, 24)
        ledger.record(False, 24)
        self.assertEqual(ledger.error_rate, 0.5)


class TestDigestChecks(unittest.TestCase):
    PIN = {"stdout_sha256": "a" * 64, "json_sha256": "b" * 64}

    def test_matching_digests_pass(self):
        run = dict(self.PIN)
        self.assertEqual(check_digests(run, [run, run], self.PIN), [])

    def test_a_digest_mismatch_fails_the_run(self):
        good = dict(self.PIN)
        bad = dict(self.PIN, json_sha256="c" * 64)
        problems = check_digests(good, [good, bad], self.PIN)
        self.assertEqual(len(problems), 1)
        self.assertIn("warm json_sha256", problems[0])

        outcome = Outcome()
        outcome.ledger.record(False, 240)
        outcome.problems.extend(problems)
        outcome.metrics = {"wall_s": 1.0}
        document = result_document(outcome, {"wall_s": "s"})
        self.assertFalse(document["correct"])
        self.assertEqual((document["attempted"], document["failed"]), (240, 240))

    def test_missing_metric_is_not_correct(self):
        outcome = Outcome()
        outcome.ledger.record(True, 10)
        document = result_document(outcome, {"wall_s": "s"})
        self.assertFalse(document["correct"])


def _slices(speed_at, count, step=0.01, length=0.0):
    """Slices every ``step`` seconds, each ``length`` seconds long and
    taking ``speed_at(t)`` times the reference CPU time."""
    return [(i * step, i * step + length, speed_at(i * step) * REFERENCE_S) for i in range(count)]


class TestCalibration(unittest.TestCase):
    def test_a_slow_host_scales_back_to_the_reference(self):
        # twice the reference time up to t=1, then at it
        calibration = Calibration(_slices(lambda t: 2 if t < 1 else 1, 300))
        self.assertAlmostEqual(calibration.scale(0.3, 0.7), 0.2)
        self.assertAlmostEqual(calibration.scale(1.5, 2.5), 1.0)
        # a short span takes the slices within WINDOW_S of it
        self.assertAlmostEqual(calibration.factor(0.5, 0.501), 0.5)

    def test_a_span_between_far_apart_slices_takes_the_nearest(self):
        calibration = Calibration([(0.0, 0.0, REFERENCE_S), (10.0, 10.0, 4 * REFERENCE_S)])
        self.assertAlmostEqual(calibration.factor(9.5, 9.6), 0.25)
        self.assertAlmostEqual(calibration.factor(20.0, 21.0), 0.25)

    def test_slices_inside_a_span_are_not_its_time(self):
        # 2 ms slices every 10 ms, at the reference speed
        calibration = Calibration(_slices(lambda t: 1, 100, length=0.002))
        self.assertAlmostEqual(calibration.inside(0.1, 0.2), 0.02)
        # cut at both ends: 0.101-0.102 and 0.19-0.1905
        self.assertAlmostEqual(calibration.inside(0.101, 0.1905), 0.0175)
        self.assertAlmostEqual(calibration.inside(0.003, 0.009), 0.0)
        self.assertAlmostEqual(calibration.scale(0.1, 0.2), 0.08)


class TestReduction(unittest.TestCase):
    def test_passes_reduce_to_medians_at_the_reference_speed(self):
        # the host runs at half the reference speed throughout
        calibration = Calibration(_slices(lambda t: 2, 10000))
        outcome = Outcome()
        spans = Spans(
            cold=[(1.0, 19.0), (20.0, 32.0), (40.0, 54.0)],
            jobs=[24, 24, 24],
            warm=[(60.0, 60.2), (61.0, 61.6), (62.0, 62.4)],
            ops=[(70.0, 70.002)] * 90 + [(71.0, 71.01)] * 10 + [(72.0, 72.02)] * 10,
            setup=[(0.0, 0.4), (0.0, 0.6), (0.0, 0.5)],
            peak_rss_mb=[50.0, 40.0, 45.0],
        )
        reduce_spans(outcome, spans, calibration)
        expected = {
            "setup_s": 0.25,
            "wall_s": 7.0,
            "warm_wall_s": 0.2,
            "jobs_per_s": 24 / 7.0,
            "latency_p50_ms": 1.0,
            "latency_p95_ms": 10.0,
            "peak_rss_mb": 45.0,
        }
        for name, value in expected.items():
            self.assertAlmostEqual(outcome.metrics[name], value, msg=name)
            host = value if name == "peak_rss_mb" else (
                value / 2 if name == "jobs_per_s" else value * 2
            )
            self.assertAlmostEqual(outcome.host[name], host, msg=name)
        self.assertEqual(outcome.samples["latency_p95_ms"], 110)
        self.assertEqual(outcome.samples["wall_s"], 3)
        self.assertIn("p90 = 5.000 ms (n=110)", outcome.notes[0])

    def test_cell_spans_skip_the_command_start(self):
        run = {"start": 0.0, "cell_done": [0.5, 0.6, 0.8]}
        self.assertEqual(cell_spans(run), [(0.5, 0.6), (0.6, 0.8)])


class TestCounts(unittest.TestCase):
    def test_count_mismatch_names_the_metric(self):
        first = {"runtime.calls": 10, "gc.collections": 3, "server.batch_size_mean": 1.5}
        second = {"runtime.calls": 10, "gc.collections": 4, "server.batch_size_mean": 2.0}
        self.assertEqual(count_mismatches(first, second), ["gc.collections"])


class TestSessionPlan(unittest.TestCase):
    def test_plan_is_seeded_and_covers_the_vocabulary(self):
        plan = session_plan(7)
        self.assertEqual(
            [(s.workload, s.collector, s.jobs) for s in plan],
            [(s.workload, s.collector, s.jobs) for s in session_plan(7)],
        )
        self.assertNotEqual(
            [s.jobs for s in plan], [s.jobs for s in session_plan(8)]
        )
        submitted = [job_id(s.workload, s.collector, step) for s in plan for step in s.jobs]
        distinct = {key for key, _, _, _ in vocabulary()}
        self.assertEqual(set(submitted), distinct)
        # one job in four simulates, three repeat a computed cell
        self.assertEqual(len(submitted), 4 * len(distinct))


if __name__ == "__main__":
    unittest.main()
