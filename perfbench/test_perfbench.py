#!/usr/bin/env python3
"""Self-tests of the benchmark driver.

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout.  The helper tests are pure; the
seeding tests build and call the workload runner.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.getcwd()


class Percentiles(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(run.percentile(list(range(1000)), 99), 989)
        with self.assertRaises(run.BenchError):
            run.percentile(list(range(999)), 99)

    def test_rule_applies_to_every_percentile(self):
        self.assertEqual(run.percentile(list(range(20)), 50), 9)
        with self.assertRaises(run.BenchError):
            run.percentile(list(range(19)), 50)

    def test_nearest_rank_ignores_order(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(run.percentile(values, 50), 3.0)

    def test_per_layer_percentile_refused_on_short_series(self):
        with self.assertRaises(run.BenchError):
            run.per_layer_metrics({"serve.op_ms": [1.0] * 50}, {})


class Names(unittest.TestCase):
    def test_pattern(self):
        for good in ("wall_s", "serve.op_p99_ms", "census-sym", "9lives"):
            self.assertTrue(run.NAME_RE.match(good), good)
        for bad in ("", "_wall", ".x", "a b", "a/b", "msµ", "x" * 65):
            self.assertFalse(run.NAME_RE.match(bad), bad)

    def test_every_emitted_name_is_valid(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER) + list(run.WORKLOADS):
            self.assertTrue(run.NAME_RE.match(name), name)

    def test_result_line_refuses_an_invalid_name(self):
        with self.assertRaises(run.BenchError):
            run.result_line({"attempted": 1, "failed": 0},
                            {"bad name": {"value": 1.0, "unit": "s"}})


class Schema(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_top_level_keys(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds", "workloads",
                                           "end_to_end", "per_layer"})
        self.assertEqual(self.bench["paths"], ["perfbench"])
        self.assertIn(self.bench["run_seconds"], range(1, 61))

    def test_workloads_match_the_driver(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))
        for w in self.bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_end_to_end_matches_the_driver(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        self.assertEqual(list(e2e), list(run.END_TO_END))
        for name, m in e2e.items():
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertEqual(m["unit"], run.END_TO_END[name][0])
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]), ("s", "lower"))
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in e2e.values()))

    def test_per_layer_matches_the_driver(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["per_layer"]}, run.PER_LAYER)
        for m in self.bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_names_are_unique(self):
        names = [m["name"] for m in self.bench["end_to_end"] + self.bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))

    def test_result_line_shape(self):
        samples = {key: [1.0, 2.0, 3.0] for _, key in run.END_TO_END.values()}
        line = run.result_line({"attempted": 3, "failed": 0}, run.end_to_end_metrics([samples]))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual(set(line["metrics"]), set(run.END_TO_END))
        failed = run.result_line({"attempted": 3, "failed": 1}, {})
        self.assertFalse(failed["correct"])

    def test_traced_run_reports_every_per_layer_metric(self):
        self.assertEqual(set(run.per_layer_metrics({}, {})), set(run.PER_LAYER))


class Samples(unittest.TestCase):
    def test_no_end_to_end_metric_from_a_single_sample(self):
        for name, (_, key) in run.END_TO_END.items():
            samples = {k: [1.0, 2.0, 3.0] for _, k in run.END_TO_END.values()}
            for short in ([], [1.0], [1.0, 2.0]):
                samples[key] = short
                with self.assertRaises(run.BenchError, msg=name):
                    run.end_to_end_metrics([samples])
                with self.assertRaises(run.BenchError, msg=name):
                    run.end_to_end_metrics([{key: [v]} for v in short])

    def test_median_of_units(self):
        samples = {k: [3.0, 1.0, 2.0, 10.0] for _, k in run.END_TO_END.values()}
        self.assertEqual(run.end_to_end_metrics([samples])["wall_norm_s"]["value"], 2.5)

    def test_median_of_process_medians(self):
        # Each process counts once, however many units it ran.
        per_process = [{"x": [1.0, 1.0, 1.0, 1.0, 1.0]}, {"x": [2.0]}, {"x": [3.0]}]
        self.assertEqual(run.median_of(per_process, "x"), 2.0)
        self.assertEqual(run.median_of([{"x": [5.0, 1.0]}, {"x": [4.0]}], "x"), 3.5)

    def test_every_workload_splits_into_processes(self):
        self.assertEqual(set(run.UNITS_PER_PROCESS), set(run.WORKLOADS))
        self.assertTrue(all(n >= 1 for n in run.UNITS_PER_PROCESS.values()))
        self.assertGreaterEqual(run.MIN_PROCESSES, run.MIN_SAMPLES)

    def test_normalized_scales_units_by_the_process_reference(self):
        out = run.normalized({"wall_s": [1.0, 3.0], "cpu_s": [2.0, 4.0], "ref_s": [0.5],
                              "setup_s": [0.1], "peak_rss_mb": [7.0]})
        self.assertEqual(out["wall_norm_s"], [0.5, 1.5])
        self.assertEqual(out["cpu_norm_s"], [1.0, 2.0])
        self.assertEqual(out["setup_norm_s"], [0.05])
        self.assertEqual(out["setup_s"], [0.1])
        self.assertEqual(out["peak_rss_mb"], [7.0])
        self.assertTrue(set(run.NORMALIZED.values()) <= {k for _, k in run.END_TO_END.values()})

    def test_normalized_needs_one_reference_time(self):
        for ref in ([], [0.3, 0.3], [0.0]):
            with self.assertRaises(run.BenchError, msg=ref):
                run.normalized({"wall_s": [1.0], "cpu_s": [1.0], "ref_s": ref})

    def test_merge_sums_operations(self):
        records = [{"attempted": 2, "failed": 0}, {"attempted": 3, "failed": 1}]
        self.assertEqual(run.merge(records), {"attempted": 5, "failed": 1, "processes": 2})


class Seeds(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(ROOT)
        cls.exe = os.path.join(ROOT, run.BUILD_DIR, run.RUNNER)

    def inputs(self, workload, seed):
        out = subprocess.run([self.exe, "inputs", workload, "--seed", str(seed)],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        return json.loads(out)["inputs"]

    def histogram(self, workload, seed):
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, "_build")) as d:
            out = subprocess.run(
                [self.exe, "run", workload, "--seed", str(seed), "--seconds", "0",
                 "--units", "1", "--rcn", os.path.join(ROOT, run.BUILD_DIR, run.RCN), "--dir", d],
                stdout=subprocess.PIPE, text=True, check=True).stdout
        record = json.loads(out.splitlines()[-1])
        self.assertEqual(record["failed"], 0)
        return record["facts"]["digest"]

    def test_second_seed_changes_generated_inputs(self):
        for workload in ("serve-mix", "dist-census", "synth"):
            self.assertNotEqual(self.inputs(workload, 1), self.inputs(workload, 2), workload)
            self.assertEqual(self.inputs(workload, 1), self.inputs(workload, 1), workload)

    def test_second_seed_leaves_census_histograms_unchanged(self):
        for workload in ("census", "census-sym"):
            self.assertEqual(self.inputs(workload, 1), self.inputs(workload, 2))
            self.assertEqual(self.histogram(workload, 1), self.histogram(workload, 2), workload)


if __name__ == "__main__":
    unittest.main()
