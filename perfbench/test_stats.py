"""Tests for the benchmark's own statistics and output checks.

    python3 perfbench/test_stats.py
"""

import math
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
import run  # noqa: E402
import stats  # noqa: E402


def phase(latency_ms, lag_ms=None, rejected=0, failed=0, mismatch=0,
          elapsed_s=1.0):
    return {"latency_ms": latency_ms, "elapsed_s": elapsed_s,
            "ok": sum(v is not None for v in latency_ms), "lost": 0,
            "lag_ms": lag_ms if lag_ms is not None else [0.0] * len(latency_ms),
            "rejected": rejected, "failed": failed, "mismatch": mismatch,
            "reloads": [], "reloads_failed": 0}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(10 ** 6), 99.999)
        for n in (20, 1000, 5000, 10 ** 5):
            p = stats.tail_percentile(n)
            self.assertGreaterEqual(n * (100 - p) / 100, 10 - 1e-9)

    def test_failures_count_as_missing_the_limit(self):
        values = stats.latencies(phase([1.0] * 98 + [None, None]))
        s = stats.summarize(values)
        self.assertEqual(s["n"], 100)
        self.assertEqual(s["p50"], 1.0)
        self.assertTrue(math.isinf(stats.percentile(sorted(values), 99)))

    def test_summary(self):
        values = [1.0] * 880 + [2.0] * 100 + [30.0] * 20
        s = stats.summarize(values)
        self.assertEqual((s["p50"], s["p90"], s["p99"]), (1.0, 2.0, 30.0))
        self.assertEqual((s["top_p"], s["top"]), (99.0, 30.0))


class LagTest(unittest.TestCase):
    def test_lag_p99(self):
        lag = [0.01] * 990 + [3.0] * 10
        self.assertEqual(stats.lag_p99(phase([1.0] * 1000, lag)), 0.01)
        lag = [0.01] * 980 + [3.0] * 20
        self.assertEqual(stats.lag_p99(phase([1.0] * 1000, lag)), 3.0)

    def test_latency_is_timed_from_due_time(self):
        # The harness reports latency from the due time, so a late send
        # shows in the latency as well as in the lag.
        lag = [0.0] * 50 + [5.0] * 50
        p = phase([0.5] * 50 + [5.5] * 50, lag)
        self.assertEqual(stats.summarize(stats.latencies(p))["p90"], 5.5)

    def test_shed_requests_are_failures_that_miss_the_limit(self):
        p = phase([1.0] * 99 + [None], rejected=1)
        self.assertEqual(stats.failures(p), 1)
        self.assertTrue(math.isinf(stats.percentile(
            sorted(stats.latencies(p)), 100)))
        p = phase([1.0] * 40 + [None] * 60, rejected=60)
        self.assertTrue(math.isinf(stats.summarize(stats.latencies(p))["p50"]))
        p = phase([1.0] * 100, mismatch=1)
        self.assertEqual(stats.failures(p), 1)


class CapacityTest(unittest.TestCase):
    def test_capacity_is_the_best_step(self):
        # Seven closed-loop steps; stalls only ever slow one down.
        served = [190000, 60000, 200000, 210000, 195000, 160000, 205000]
        steps = [phase([1.0] * (n // 10), elapsed_s=0.1) for n in served]
        self.assertAlmostEqual(stats.capacity(steps), 210000.0)

    def test_failed_requests_are_not_served(self):
        p = phase([1.0] * 900 + [None] * 100, failed=100, elapsed_s=0.5)
        self.assertEqual(stats.served_rate(p), 1800.0)
        self.assertEqual(stats.failures(p), 100)

    def test_a_late_generator_lengthens_the_step(self):
        p = phase([1.0] * 4000, elapsed_s=0.5)
        self.assertEqual(stats.served_rate(p), 8000.0)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.5, 12.0, 10.2, 9.9, 10.1, 10.4, 11.5]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / med)
        self.assertEqual(stats.spread([5.0] * 10), 0.0)


class FingerprintRecordTest(unittest.TestCase):
    def test_alternating_builds_are_each_checked(self):
        # Runs of two builds alternate in one build directory; each is
        # checked against its own record, not the last build's.
        known = {}
        self.assertTrue(run.check_recorded(known, "parent", "aaaa"))
        self.assertTrue(run.check_recorded(known, "pr", "bbbb"))
        self.assertTrue(run.check_recorded(known, "parent", "aaaa"))
        self.assertTrue(run.check_recorded(known, "pr", "bbbb"))
        self.assertFalse(run.check_recorded(known, "pr", "cccc"))
        self.assertFalse(run.check_recorded(known, "parent", "bbbb"))
        self.assertEqual(known, {"parent": "aaaa", "pr": "bbbb"})


if __name__ == "__main__":
    unittest.main()
