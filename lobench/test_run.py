#!/usr/bin/env python3
"""Unit tests for the benchmark's own rules: the percentile rule and the
metric-name charset, plus agreement between run.py and BENCHMARK.json.

    python3 lobench/test_run.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(999)), 0.99))
        self.assertEqual(run.percentile(list(range(1000)), 0.99), 989)
        # The reported rank leaves exactly ten samples above it.
        self.assertEqual(sum(1 for v in range(1000) if v > 989), 10)

    def test_p50_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(19)), 0.5))
        self.assertEqual(run.percentile(list(range(20)), 0.5), 9)

    def test_nearest_rank_ignores_input_order(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(run.percentile(samples, 0.5), 3.0)
        self.assertIsNone(run.percentile([], 0.5))

    def test_required_refuses_a_thin_percentile(self):
        with self.assertRaises(run.BenchError):
            run.required([1.0] * 500, 0.99, "txn_ms")
        self.assertEqual(run.required([2.0] * 1000, 0.99, "txn_ms"), 2.0)


class MetricNames(unittest.TestCase):
    def test_charset(self):
        for good in ("setup_s", "client.rtt_us.lo_read", "9lives", "a-b.c_d"):
            self.assertTrue(run.NAME_RE.match(good), good)
        for bad in ("", "_lead", ".lead", "has space", "slash/name",
                    "pct%", "x" * 65):
            self.assertIsNone(run.NAME_RE.match(bad), bad)
        for good in ("ms", "txn/s", "%", "count/MB", "MB/s"):
            self.assertTrue(run.UNIT_RE.match(good), good)
        for bad in ("", "m s", "u" * 17, "ms!"):
            self.assertIsNone(run.UNIT_RE.match(bad), bad)

    def test_tables_pass_the_charset_and_are_unique(self):
        run.check_names(run.END_TO_END)
        run.check_names(run.PER_LAYER)
        names = [n for n, _, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        with self.assertRaises(run.BenchError):
            run.check_names([("bad name", "ms", "lower")])

    def test_benchmark_json_matches_the_tables(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            doc = json.load(f)
        self.assertEqual(doc["command"], ["python3", "lobench/run.py"])
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]],
            run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
            run.PER_LAYER)
        for m in doc["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in doc["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
