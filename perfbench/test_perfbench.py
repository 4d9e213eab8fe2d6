#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Every workload runs on a tiny input (scale divisor 2000, one second) and
must finish correct, with no failed operation and every metric printed. The
same runs fed one corrupted expected aggregate must report correct = false,
which proves the group-by and conservation checks can fail. A run with a
CURE_* variable in its environment must refuse to start.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
WORKLOADS = ("build_apb", "serve_drill", "cluster_scatter", "live_ingest")

# Per-layer metrics each workload must move off zero even on a tiny input.
OWNED_LAYERS = {
    "build_apb": ["etl.load_s", "engine.construct_s", "cube.persist_s",
                  "cube.open_s", "engine.partitions", "engine.n_rows",
                  "storage.write_bytes", "cube.tt", "cube.relations"],
    "serve_drill": ["query.engine_us", "serve.execute_us", "serve.handle_us",
                    "serve.reply_bytes", "algebra.exact_hits"],
    "cluster_scatter": ["router.handle_us", "router.backend_rtt_us",
                        "router.merge_us", "router.gathered_rows_per_query",
                        "common.peak_threads"],
    "live_ingest": ["maintain.append_us", "storage.fsyncs_per_batch",
                    "maintain.refresh_ms", "maintain.delta_refreshes"],
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace=0, corrupt=False, env=None):
    command = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--scale-divisor", "2000"]
    if corrupt:
        command.append("--corrupt-expected")
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          timeout=600)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()

    def test_workloads_are_correct_and_print_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertTrue(result["correct"], proc.stderr[-2000:])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                for metric in self.spec["end_to_end"]:
                    value = result["metrics"][metric["name"]]
                    self.assertEqual(value["unit"], metric["unit"])
                    self.assertGreater(value["value"], 0, metric["name"])

    def test_traced_runs_print_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertTrue(result["correct"], proc.stderr[-2000:])
                names = {m["name"] for m in self.spec["per_layer"]}
                self.assertEqual(set(result["metrics"]), names)
                for name in OWNED_LAYERS[workload]:
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)
                trace = os.path.join(ROOT, ".bench_out",
                                     "%s-seed7.trace.json" % workload)
                with open(trace) as f:
                    self.assertTrue(json.load(f)["traceEvents"])

    def test_corrupted_expectation_is_reported_incorrect(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, corrupt=True)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertFalse(result["correct"])
                self.assertIn("CHECK FAILED", proc.stderr)

    def test_cure_environment_is_refused(self):
        env = dict(os.environ, CURE_THREADS="2")
        proc, result = run("build_apb", env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
