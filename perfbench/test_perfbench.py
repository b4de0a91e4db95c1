#!/usr/bin/env python3
"""Self-tests of the campaign benchmark.

    python3 perfbench/test_perfbench.py

The table tests read BENCHMARK.json and perfbench/metrics.json only. The
harness tests build the harness (as run.py does, under .bench_build/) and
check the corpus-derived metric names and that the counting device shim
changes no report byte.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's entry point, for its build step)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128


def load(path):
    return json.loads(Path(path).read_text())


class TableTest(unittest.TestCase):
    def setUp(self):
        self.bench = load(ROOT / "BENCHMARK.json")
        self.table = load(HERE / "metrics.json")

    def test_benchmark_json_shape(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in b["workloads"]],
                         list(run.WORKLOADS))
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()),
                             64 * 1024)

    def test_metric_names_and_units(self):
        names = []
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for w in self.bench["workloads"]:
            self.assertRegex(w["name"], NAME)

    def test_metric_counts(self):
        self.assertLessEqual(len(self.bench["end_to_end"]), MAX_END_TO_END)
        self.assertLessEqual(len(self.bench["per_layer"]), MAX_PER_LAYER)
        self.assertGreaterEqual(len(self.bench["end_to_end"]), 1)
        self.assertGreaterEqual(len(self.bench["per_layer"]), 1)

    def test_benchmark_json_mirrors_the_table(self):
        for key, fields in (("end_to_end", ("name", "unit", "better", "bound")),
                            ("per_layer", ("name", "unit", "better"))):
            mirrored = [{f: m[f] for f in fields} for m in self.table[key]]
            self.assertEqual(self.bench[key], mirrored, key)

    def test_every_layer_metric_names_what_it_moves(self):
        end_to_end = {m["name"] for m in self.bench["end_to_end"]}
        workloads = {w["name"] for w in self.bench["workloads"]}
        for m in self.table["per_layer"]:
            if m.get("diagnostic"):
                self.assertEqual(m["moves"], [], m["name"])
                self.assertTrue(m.get("note"), m["name"])
                continue
            self.assertTrue(m["moves"], f"{m['name']} names nothing it moves")
            for metric, workload in m["moves"]:
                self.assertIn(metric, end_to_end, m["name"])
                self.assertIn(workload, workloads, m["name"])


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def harness(self, *args):
        return subprocess.run([str(run.HARNESS), *args], capture_output=True,
                              text=True)

    def test_corpus_metric_names_are_in_the_table(self):
        r = self.harness("--list-corpus-metrics")
        self.assertEqual(r.returncode, 0, r.stderr)
        listed = set(r.stdout.split())
        table = {m["name"] for m in load(HERE / "metrics.json")["per_layer"]
                 if m["name"].startswith(("eval.campaign_s.",
                                          "eval.spec_s."))}
        self.assertEqual(listed, table)

    def test_device_shim_changes_no_byte_on_busmouse(self):
        r = self.harness("--selftest-shim")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("ok: busmouse mutation campaigns", r.stdout)

    def test_unknown_workload_is_refused(self):
        r = self.harness("--workload", "nope", "--table",
                         str(HERE / "metrics.json"), "--expected-dir",
                         str(HERE / "expected"))
        self.assertEqual(r.returncode, 2)
        self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main()
