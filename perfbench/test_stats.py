"""Unit tests for the benchmark's reporting rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_bounds(self):
        xs = [1, 2, 3, 4, 5]
        self.assertEqual(stats.nearest_rank(xs, 100), 5)
        self.assertEqual(stats.nearest_rank(xs, 20), 1)
        self.assertEqual(stats.nearest_rank(xs, 0.1), 1)

    def test_rank_rounds_up(self):
        xs = list(range(1, 11))
        self.assertEqual(stats.nearest_rank(xs, 50), 5)
        self.assertEqual(stats.nearest_rank(xs, 51), 6)
        self.assertEqual(stats.nearest_rank(xs, 90), 9)

    def test_empty(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50)


class TailRule(unittest.TestCase):
    def test_ten_beyond(self):
        xs = [float(i) for i in range(1, 51)]  # 50 samples
        v, p, n = stats.tail(xs)
        self.assertEqual(n, 50)
        self.assertEqual(v, 40.0)  # exactly ten samples above it
        self.assertEqual(p, 80.0)
        self.assertEqual(sum(1 for x in xs if x > v), 10)

    def test_order_does_not_matter(self):
        xs = [float(i) for i in range(37, 0, -1)]
        v, p, _ = stats.tail(xs)
        self.assertEqual(v, 27.0)
        self.assertEqual(p, 72.9)
        # the reported percentile maps back to the same sample
        self.assertEqual(stats.nearest_rank(sorted(xs), p), v)

    def test_too_few_samples_reports_median(self):
        for n in (1, 2, 7, 11, 19, 20):
            xs = [float(i) for i in range(n)]
            v, p, count = stats.tail(xs)
            self.assertEqual((v, p, count), (stats.median(xs), 50.0, n))

    def test_never_below_median(self):
        for n in range(1, 400):
            xs = [float(i) for i in range(n)]
            v, p, _ = stats.tail(xs)
            self.assertGreaterEqual(v, stats.median(xs))
            if p != 50.0:
                self.assertEqual(stats.nearest_rank(xs, p), v)
                self.assertEqual(sum(1 for x in xs if x > v), stats.MIN_BEYOND)

    def test_empty(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class ResultLine(unittest.TestCase):
    NAMES = ["latency_p50_s", "setup_s"]

    def line(self, **kw):
        args = dict(correct=True, attempted=10, failed=0,
                    metrics={"latency_p50_s": (0.4, "s"), "setup_s": (7.2, "s")})
        args.update(kw)
        return stats.result_line(**args)

    def test_shape(self):
        line = self.line()
        self.assertEqual(sorted(line), sorted(stats.RESULT_KEYS))
        self.assertEqual(line["metrics"]["setup_s"], {"value": 7.2, "unit": "s"})
        stats.check_result_line(json.loads(json.dumps(line)), self.NAMES)

    def test_rejects_missing_and_extra(self):
        line = self.line(metrics={"latency_p50_s": (0.4, "s")})
        with self.assertRaises(ValueError):
            stats.check_result_line(line, self.NAMES)
        line = self.line()
        line["metrics"]["bogus"] = {"value": 1, "unit": "s"}
        with self.assertRaises(ValueError):
            stats.check_result_line(line, self.NAMES)

    def test_rejects_bad_fields(self):
        with self.assertRaises(ValueError):
            self.line(attempted=0)
        with self.assertRaises(ValueError):
            self.line(metrics={"latency_p50_s": ("fast", "s"), "setup_s": (1, "s")})
        line = self.line()
        line["extra"] = 1
        with self.assertRaises(ValueError):
            stats.check_result_line(line, self.NAMES)
        line = self.line()
        line["metrics"]["setup_s"]["samples"] = 3
        with self.assertRaises(ValueError):
            stats.check_result_line(line, self.NAMES)

    def test_benchmark_json_names(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        allowed = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")
        for n in names + [w["name"] for w in spec["workloads"]]:
            self.assertTrue(set(n) <= allowed, n)
            self.assertTrue(n[0].isalnum(), n)
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])


if __name__ == "__main__":
    unittest.main()
