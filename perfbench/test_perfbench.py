#!/usr/bin/env python3
"""The benchmark's own tests: every workload at smoke size under two seeds,
untraced and traced, checked for the metric names and units BENCHMARK.json
lists, the oracle verdict and the result-line format.

    python3 perfbench/test_perfbench.py
"""
import json
import math
import unittest

import run

SEEDS = (1, 2)
SECONDS = 2


class PerfbenchTest(unittest.TestCase):
    records = {}

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        for workload in run.WORKLOADS:
            for seed in SEEDS:
                for trace in (0, 1):
                    cls.records[workload, seed, trace] = run.run_workload(
                        workload, seed, SECONDS, trace, tiny=True,
                        history=False)

    def each(self):
        for (workload, seed, trace), record in self.records.items():
            with self.subTest(workload=workload, seed=seed, trace=trace):
                self.assertIsNotNone(record)
                yield workload, seed, trace, record

    def test_metric_names_and_units_match_benchmark_json(self):
        for _, _, trace, record in self.each():
            self.assertEqual(run.check_metrics(record, trace), [])

    def test_oracles_pass_and_no_op_fails(self):
        for _, _, _, record in self.each():
            self.assertTrue(record["correct"], record["errors"])
            self.assertEqual(record["failed"], 0)
            self.assertGreater(record["attempted"], 0)

    def test_values_are_finite_and_end_to_end_never_zero(self):
        for _, _, trace, record in self.each():
            for name, metric in record["metrics"].items():
                self.assertTrue(math.isfinite(metric["value"]), name)
                self.assertGreaterEqual(metric["value"], 0, name)
                if trace == 0:
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_run_also_reports_end_to_end_for_the_overhead(self):
        spec = run.metric_spec()
        for _, _, trace, record in self.each():
            if trace == 1:
                self.assertEqual(set(record["traced_e2e"]),
                                 {m["name"] for m in spec[0]})

    def test_traced_run_records_span_totals_per_layer(self):
        for _, _, trace, record in self.each():
            if trace == 0:
                self.assertEqual(record["layers"], {})
                continue
            self.assertTrue(record["layers"])
            for name, layer in record["layers"].items():
                self.assertGreater(layer["count"], 0, name)
                self.assertGreaterEqual(layer["busy_s"] + 1e-9,
                                        layer["self_s"], name)
                self.assertGreaterEqual(layer["self_s"], 0, name)

    def test_result_line_has_exactly_the_contract_keys(self):
        for _, _, _, record in self.each():
            line = json.loads(run.result_line(record))
            self.assertEqual(set(line), {"correct", "attempted", "failed",
                                         "metrics"})
            for metric in line["metrics"].values():
                self.assertEqual(set(metric), {"value", "unit"})

    def test_seed_determines_the_inputs(self):
        # read_hot's set-up stages the whole generated namespace, so its
        # PFS bytes are the dataset size: equal for equal seeds, and the
        # seeded size jitter makes them differ across seeds.
        again = run.run_workload("read_hot", SEEDS[0], SECONDS, 0, tiny=True,
                                 history=False)
        first = self.records["read_hot", SEEDS[0], 0]["metrics"]
        other = self.records["read_hot", SEEDS[1], 0]["metrics"]
        self.assertEqual(again["metrics"]["pfs_read_mib"]["value"],
                         first["pfs_read_mib"]["value"])
        self.assertNotEqual(first["pfs_read_mib"]["value"],
                            other["pfs_read_mib"]["value"])


if __name__ == "__main__":
    unittest.main()
