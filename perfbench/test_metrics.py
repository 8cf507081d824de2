"""Self-tests of the benchmark's metric code.

Run from the repository root: python3 perfbench/test_metrics.py
"""

import json
import os
import re
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))

CANNED_FIG3 = """
== Figure 3: snooping vs directory ==
+----------+-----------+--------+------------+-------------+------------+---------------+
| workload | series    | source | cycle (ns) | proc util % | net util % | miss lat (ns) |
+----------+-----------+--------+------------+-------------+------------+---------------+
| MP3D 8   | snooping  | model  | 1          | 20.8        | 33.8       | 249           |
| MP3D 8   | snooping  | model  | 20         | 85.3        | 6.9        | 220           |
| MP3D 8   | directory | model  | 20         | 80.0        | 6.7        | 330           |
| MP3D 8   | snooping  | sim    | 20         | 85.5        | 6.8        | 200           |
| MP3D 8   | directory | sim    | 20         | 80.1        | 6.6        | 300           |
| WATER 16 | snooping  | model  | 20         | 90.0        | 3.0        | 150           |
| WATER 16 | snooping  | sim    | 20         | 90.1        | 3.1        | 150           |
+----------+-----------+--------+------------+-------------+------------+---------------+
"""


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.nearest_rank(values, 50), 50)
        self.assertEqual(metrics.nearest_rank(values, 99), 99)
        self.assertEqual(metrics.nearest_rank(values, 100), 100)
        self.assertEqual(metrics.nearest_rank([7], 99), 7)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertEqual(metrics.tail(list(range(100)), 90), 89)
        self.assertIsNone(metrics.tail(list(range(99)), 90))
        self.assertIsNone(metrics.tail(list(range(999)), 99))
        self.assertEqual(metrics.tail(list(range(1000)), 99), 989)
        # 99.9% of 10000 is rank 9990, with exactly 10 samples beyond.
        self.assertEqual(metrics.tail(list(range(10000)), 99.9), 9989)


class ModelError(unittest.TestCase):
    def test_parsed_from_a_canned_table(self):
        err, pairs = metrics.model_err_pct(CANNED_FIG3)
        self.assertEqual(pairs, 3)
        # |220-200|/200, |330-300|/300, |150-150|/150
        self.assertAlmostEqual(err, 100 * (0.1 + 0.1 + 0.0) / 3)

    def test_no_validation_rows(self):
        self.assertEqual(metrics.model_err_pct("no table here"), (None, 0))

    def test_explicit_pairs(self):
        self.assertAlmostEqual(metrics.pair_err_pct([(100, 110), (200, 180)]),
                               10.0)
        self.assertIsNone(metrics.pair_err_pct([(0, 5)]))


class FailureAccounting(unittest.TestCase):
    def test_every_kind_of_failure_counts(self):
        self.assertEqual(metrics.failures(10, failed=1, shed=1, timed_out=1,
                                          wrong=1), (10, 4, 0.6))

    def test_clean_run(self):
        self.assertEqual(metrics.failures(5), (5, 0, 1.0))

    def test_nothing_attempted_is_a_failure(self):
        self.assertEqual(metrics.failures(0), (1, 1, 0.0))

    def test_failures_never_exceed_attempts(self):
        self.assertEqual(metrics.failures(3, wrong=5), (3, 3, 0.0))


class Names(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_benchmark_json_meets_the_contract(self):
        self.assertEqual(metrics.check_benchmark_json(self.bench), [])

    def test_bad_names_and_units_are_refused(self):
        for bad in ("_x", "a b", "x" * 65, ""):
            self.assertIsNone(metrics.NAME_RE.match(bad), bad)
        for good in ("p50_ms", "ring.sat_visits_per_s.n64", "9lives"):
            self.assertIsNotNone(metrics.NAME_RE.match(good), good)
        doc = json.loads(json.dumps(self.bench))
        doc["per_layer"].append({"name": "p50_ms", "unit": "ms",
                                 "better": "lower"})
        doc["end_to_end"][0]["unit"] = "seconds!"
        problems = metrics.check_benchmark_json(doc)
        self.assertIn("names must be used once", problems)
        self.assertTrue(any("bad unit" in p for p in problems))

    def test_every_listed_metric_is_measured(self):
        with open(os.path.join(HERE, "run.py")) as f:
            src = f.read()
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            templated = re.sub(r"\.n\d+$", ".n%d", m["name"])
            self.assertTrue('"%s"' % m["name"] in src or
                            '"%s"' % templated in src, m["name"])


class Verdicts(unittest.TestCase):
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_improved(self):
        change = [v * 0.8 for v in self.base]
        self.assertEqual(metrics.verdict(self.base, change, "lower", 0.1),
                         "improved")

    def test_worse(self):
        change = [v * 1.3 for v in self.base]
        self.assertEqual(metrics.verdict(self.base, change, "lower", 0.1),
                         "worse")
        self.assertEqual(metrics.verdict(self.base, change, "lower"), "worse")

    def test_unchanged(self):
        self.assertEqual(metrics.verdict(self.base, list(self.base), "higher",
                                         0.1), "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [50, 150, 80, 120, 60, 140, 70, 130, 90, 110]
        self.assertEqual(metrics.verdict(noisy, list(self.base), "lower",
                                         0.05), "unresolved")

    def test_spread(self):
        self.assertEqual(metrics.spread([5.0]), 0.0)
        self.assertAlmostEqual(metrics.spread([1, 2, 3, 4, 5]), 3 / 3)


class Breakdown(unittest.TestCase):
    def test_terms_cover_the_capacity(self):
        def span(i, parent, name, start, end, **attrs):
            return {"id": i, "parent": parent, "name": name,
                    "start_us": start * 1e6, "end_us": end * 1e6,
                    "attrs": attrs}
        probe = [span(1, 0, "trace.generate", 0, 0.1, workload="W",
                      records=1000),
                 span(2, 0, "model.solve", 0, 0.024, workload="W", solves=24)]
        spans = [span(10, 0, "fig3.sweep", 0, 2, jobs=2),
                 span(11, 10, "figures.block", 0, 1, kind="series",
                      workload="W"),
                 span(12, 10, "figures.block", 0, 1.5, kind="snoop",
                      workload="W"),
                 span(13, 10, "figures.block", 1, 2, kind="directory",
                      workload="W"),
                 span(14, 10, "figures.assemble", 1.9, 2)]
        [b] = metrics.fig3_breakdown(spans, probe)
        t = b["terms_s"]
        self.assertAlmostEqual(b["serial_s"], 3.5)
        self.assertAlmostEqual(t["trace_gen"], 0.3)
        self.assertAlmostEqual(t["model"], 0.012)
        self.assertAlmostEqual(t["census"], 1 - 0.1 - 0.012)
        self.assertAlmostEqual(t["snoop"], 1.4)
        self.assertAlmostEqual(t["directory"], 0.9)
        self.assertAlmostEqual(t["runner_idle"], 4 - 3.5 - 0.1)
        self.assertAlmostEqual(sum(t.values()), b["capacity_s"])
        self.assertEqual(b["sim_records"], 2000)


if __name__ == "__main__":
    unittest.main()
