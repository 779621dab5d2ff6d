"""Self-tests of the benchmark: its checker catches a corrupted output, a
wedged run ends at its deadline as a failed run, its traced run reports every
per-layer metric, and its metric map is complete.

Run from anywhere (each case runs the benchmark for about a second):

    python3 -m unittest discover -s perfbench/tests
"""

import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TARGETS = ["rtt", "stream", "burst", "heat2d", "heat2d_rma", "allreduce", "bcast", "rma"]


def run_bench(*extra, trace=0, workload="shm"):
    """Runs the benchmark; returns its exit status and its result line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


class CheckerTest(unittest.TestCase):
    def test_clean_run_is_correct(self):
        for workload in ("shm", "unix"):
            with self.subTest(workload=workload):
                code, r = run_bench(workload=workload)
                self.assertEqual(code, 0, r)
                self.assertTrue(r["correct"], r)
                self.assertEqual(r["failed"], 0)
                self.assertEqual(set(r["metrics"]), {m["name"] for m in SPEC["end_to_end"]})

    def test_each_corrupted_output_raises_fail_frac(self):
        for target in TARGETS:
            with self.subTest(target=target):
                code, r = run_bench("--corrupt", target)
                self.assertEqual(code, 1)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)
                self.assertGreater(r["failed"] / r["attempted"], 0)

    def test_traced_run_reports_every_layer_metric(self):
        code, r = run_bench(trace=1)
        self.assertEqual(code, 0, r)
        self.assertTrue(r["correct"], r)
        self.assertEqual(set(r["metrics"]), {m["name"] for m in SPEC["per_layer"]})


class DeadlineTest(unittest.TestCase):
    def test_wedged_run_is_killed_and_counted_failed(self):
        # An eager threshold above the credit window hangs the first 64 KiB
        # ping; the run must end at its deadline as a failed run.
        for workload in ("shm", "unix"):
            with self.subTest(workload=workload):
                start = time.monotonic()
                code, r = run_bench("--wedge", "1", "--deadline", "5", workload=workload)
                self.assertLess(time.monotonic() - start, 60)
                self.assertEqual(code, 1)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)


class CompareTest(unittest.TestCase):
    def test_refuses_records_from_another_host(self):
        record = {"workload": "shm", "trace": 0, "fingerprint": {"cpu": "a", "nproc": 4},
                  "metrics": {"rtt_8B_us": {"value": 1.0, "unit": "us"}}}
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        mine, theirs = scratch / "compare-mine.json", scratch / "compare-theirs.json"
        mine.write_text(json.dumps(record))
        theirs.write_text(json.dumps(dict(record, fingerprint={"cpu": "b", "nproc": 4})))

        def compare(a, b):
            return subprocess.run([sys.executable, "perfbench/run.py", "--compare", str(a), str(b)],
                                  cwd=ROOT, capture_output=True, text=True).returncode

        self.assertEqual(compare(mine, mine), 0)
        self.assertEqual(compare(mine, theirs), 3)


class MetricMapTest(unittest.TestCase):
    def test_map_covers_every_layer_metric(self):
        entries = json.loads((ROOT / "perfbench" / "layers.json").read_text())["map"]
        layers = {m["name"] for m in SPEC["per_layer"]}
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        workloads = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual({e["layer"] for e in entries}, layers)
        for e in entries:
            self.assertLessEqual(set(e["moves"]), end_to_end, e)
            self.assertLessEqual(set(e["workloads"]), workloads, e)


if __name__ == "__main__":
    unittest.main()
