"""Tests of the trace self-time helpers (python3 perfbench/run.py --selftest
runs them, or: python3 -m unittest discover -s perfbench)."""

import unittest

import benchlib


def span(name, ts, dur, tid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "tid": tid}


def instant(name, ts, tid=1):
    return {"name": name, "ph": "i", "s": "t", "ts": ts, "tid": tid}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        spans = benchlib.complete_spans([span("kv_op", 10, 5)])
        self.assertEqual(benchlib.self_times(spans), [5])

    def test_children_are_subtracted_from_the_parent_only(self):
        events = [span("maintain", 0, 100), span("controller_tick", 10, 50),
                  span("barrier", 20, 30), span("barrier", 70, 10)]
        selfs = benchlib.self_times(benchlib.complete_spans(events))
        # maintain: 100 - 50 (tick) - 10 (second barrier); tick: 50 - 30.
        self.assertEqual(selfs, [40, 20, 30, 10])

    def test_threads_do_not_nest_into_each_other(self):
        events = [span("campaign", 0, 100, tid=1),
                  span("request", 10, 5, tid=2)]
        selfs = benchlib.self_times(benchlib.complete_spans(events))
        self.assertEqual(selfs, [100, 5])

    def test_rounding_overhang_is_clipped(self):
        events = [span("maintain", 0, 10), span("barrier", 5, 5.002)]
        selfs = benchlib.self_times(benchlib.complete_spans(events))
        self.assertAlmostEqual(selfs[0], 5)
        self.assertGreaterEqual(min(selfs), 0)

    def test_sequential_siblings(self):
        events = [span("maintain", 0, 30), span("barrier", 0, 10),
                  span("barrier", 10, 10), span("barrier", 20, 10)]
        selfs = benchlib.self_times(benchlib.complete_spans(events))
        self.assertEqual(selfs[0], 0)


class TraceMetricsTest(unittest.TestCase):
    def test_layers_count_only_inside_the_timed_phase(self):
        events = [
            instant("phase_begin", 0), instant("phase_end", 1000),
            span("maintain", 100, 200), span("barrier", 150, 100),
            span("kv_op", 400, 1),          # sampled: scaled by 256
            span("grace_wait", 500, 50, tid=2),
            span("barrier", 2000, 500),     # after the phase: ignored
        ]
        m = benchlib.trace_metrics({"traceEvents": events})
        self.assertAlmostEqual(m["trace.anchorage_self"][0], 0.2)
        self.assertAlmostEqual(m["trace.core_self"][0], 0.05)
        self.assertAlmostEqual(m["trace.kv_self"][0], 0.256)
        self.assertEqual(m["trace.spans"][0], 4)
        self.assertEqual(m["trace.core_self"][1], "s/s")

    def test_dropped_events_are_reported(self):
        events = [span("kv_op", 0, 1),
                  {"name": "dropped_events: 42", "ph": "i", "s": "g",
                   "ts": 0, "tid": 0}]
        m = benchlib.trace_metrics({"traceEvents": events})
        self.assertEqual(m["trace.dropped"][0], 42)

    def test_daemon_windows_overlapping_campaigns(self):
        events = [
            instant("phase_begin", 0), instant("phase_end", 1000),
            span("daemon_window", 0, 100, tid=3),
            span("daemon_window", 100, 100, tid=3),
            span("daemon_window", 200, 100, tid=3),
            span("daemon_window", 300, 100, tid=3),
            span("campaign", 150, 20, tid=4),
            span("campaign", 390, 50, tid=4),
        ]
        m = benchlib.trace_metrics({"traceEvents": events})
        self.assertEqual(m["trace.daemon_active_frac"][0], 0.5)

    def test_no_phase_marks_uses_the_whole_trace(self):
        events = [span("campaign", 0, 1), span("grace_wait", 9, 1, tid=2)]
        m = benchlib.trace_metrics({"traceEvents": events})
        self.assertAlmostEqual(m["trace.core_self"][0], 0.1)


if __name__ == "__main__":
    unittest.main()
