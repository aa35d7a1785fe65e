"""Tests for the benchmark's statistics and its output record.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import stats  # noqa: E402


class Median(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))

    def test_needs_two_values(self):
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])


class TailRule(unittest.TestCase):
    """A tail percentile needs ten samples beyond it."""

    def test_thresholds(self):
        self.assertEqual(stats.tail_percentile(100000), 90)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(99), 50)
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertIsNone(stats.tail_percentile(19))
        self.assertIsNone(stats.tail_percentile(1))

    def test_every_reported_tail_has_ten_beyond(self):
        for n in range(1, 3000):
            p = stats.tail_percentile(n)
            if p is not None:
                self.assertGreaterEqual(stats.samples_beyond(n, p), 10)

    def test_tail_values(self):
        for n, want in ((1000, 90), (50, 50)):
            values = list(range(1, n + 1))
            value, p = stats.tail(values)
            self.assertEqual(p, want)
            self.assertEqual(value, statistics.quantiles(
                values, n=100, method="inclusive")[p - 1])
            self.assertGreater(sum(v > value for v in values), 9)

    def test_small_sample_reports_the_median(self):
        self.assertEqual(stats.tail([5.0, 9.0, 7.0]), (7.0, 50))
        self.assertEqual(stats.tail([4.0]), (4.0, 50))

    def test_percentile(self):
        self.assertEqual(stats.percentile([2.0], 99), 2.0)
        self.assertEqual(stats.percentile([1.0, 2.0, 3.0], 50), 2.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class FailureRatio(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(stats.failed_frac(10, 0), 0)
        self.assertEqual(stats.failed_frac(10, 3), 0.3)
        self.assertEqual(stats.failed_frac(4, 4), 1)

    def test_rejects_impossible_tallies(self):
        for attempted, failed in ((0, 0), (3, 4), (3, -1)):
            with self.assertRaises(ValueError):
                stats.failed_frac(attempted, failed)


class Record(unittest.TestCase):
    def test_shape(self):
        line = stats.result_record(12, 0, {"op_ms_p50": (1.25, "ms"),
                                           "setup_s": (0.5, "s")})
        rec = json.loads(line)
        self.assertEqual(set(rec), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(rec["correct"], True)
        self.assertEqual(rec["attempted"], 12)
        self.assertEqual(rec["failed"], 0)
        self.assertEqual(rec["metrics"]["op_ms_p50"],
                         {"value": 1.25, "unit": "ms"})
        self.assertNotIn("\n", line)

    def test_failures_make_it_incorrect(self):
        rec = json.loads(stats.result_record(5, 2, {"x": (1, "s")}))
        self.assertIs(rec["correct"], False)
        self.assertEqual(rec["failed"], 2)

    def test_values_keep_all_digits(self):
        rec = json.loads(stats.result_record(1, 0, {"x": (0.1234567891234,
                                                          "s")}))
        self.assertEqual(rec["metrics"]["x"]["value"], 0.1234567891234)

    def test_rejects_non_finite_values(self):
        with self.assertRaises(ValueError):
            stats.result_record(1, 0, {"x": (math.nan, "s")})
        with self.assertRaises(ValueError):
            stats.result_record(1, 0, {"x": (math.inf, "s")})

    def test_rejects_empty_tally(self):
        with self.assertRaises(ValueError):
            stats.result_record(0, 0, {})


class GoldenComparison(unittest.TestCase):
    """The store tally is a counter, not a result."""

    def test_cache_line_is_left_out(self):
        out = b"radix 1.00\ncache: 3 hits, 7 misses (store, 10 entries)\n"
        self.assertEqual(run.results_only(out), b"radix 1.00\n")
        self.assertEqual(run.results_only(out),
                         run.results_only(out.replace(b"3 hits", b"9 hits")))

    def test_results_still_count(self):
        self.assertNotEqual(run.results_only(b"radix 1.00\n"),
                            run.results_only(b"radix 1.01\n"))

    def test_tally_is_still_read(self):
        out = b"x\ncache: 20 hits, 180 misses (store, 200 entries)\n"
        self.assertEqual(run.CACHE_LINE.findall(out), [(b"20", b"180")])


class Contract(unittest.TestCase):
    """BENCHMARK.json and run.py name the same metrics and workloads."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(BENCH),
                               "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_end_to_end(self):
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))

    def test_per_layer(self):
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["per_layer"]],
                         list(run.PER_LAYER))

    def test_names_are_unique(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))

    def test_every_artifact_has_a_golden(self):
        for a in run.ARTIFACTS:
            path = os.path.join(run.GOLDEN_DIR, a + ".txt")
            self.assertTrue(os.path.getsize(path) > 0, path)


if __name__ == "__main__":
    unittest.main()
