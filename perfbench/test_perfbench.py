#!/usr/bin/env python3
"""The benchmark's own tests: a smoke run of every workload at 1/100 size,
and the two negative controls of its correctness gate.

    python3 perfbench/test_perfbench.py

Takes about half a minute (the first call also builds the benchmark).
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Printed (with unit) by the untraced run of the workloads they apply to.
# Besides BENCHMARK.json's end-to-end metrics, which every workload has.
EXTRA_PRINTED = {
    "churn-large": ["update_p50_ns", "update_p99_ns", "failed_op_share"],
    "read-small": ["failed_op_share"],
    "snapshot-scan-sharded": ["update_p50_ns", "update_p99_ns", "scan_p50_us",
                              "scan_p99_us", "failed_op_share"],
}


def run(workload, trace=0, inject="none"):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", "--inject", inject]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=170)
    lines = r.stdout.splitlines()
    return r.returncode, lines, json.loads(lines[-1])


def printed(lines):
    """name -> (unit, sample count or None) from the report lines."""
    out = {}
    for line in lines:
        m = re.match(r"^(\S+)\s+(-?[\d.]+)\s+(\S+)(?:\s+\(n=(\d+)\))?$", line)
        if m:
            out[m.group(1)] = (m.group(3), m.group(4) and int(m.group(4)))
    return out


class Smoke(unittest.TestCase):
    def check_result_line(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_untraced_run_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, result = run(w)
                self.assertEqual(code, 0)
                self.check_result_line(result, SPEC["end_to_end"])
                shown = printed(lines)
                names = [m["name"] for m in SPEC["end_to_end"]] + EXTRA_PRINTED[w]
                for name in names:
                    self.assertIn(name, shown)
                    if "_p50_" in name or "_p99_" in name:
                        self.assertGreater(shown[name][1], 0, name)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_traced_run_emits_every_per_layer_metric_and_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, result = run(w, trace=1)
                self.assertEqual(code, 0)
                self.check_result_line(result, SPEC["per_layer"])
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(m["lo.contains_restarts"], 0)
                self.assertEqual(m["mvcc.snapshot_acquires"], m["scan.count"])
                spans = ROOT / ".bench_out" / f"{w}-seed3.spans.csv"
                self.assertTrue(spans.is_file())
                header, first = spans.read_text().splitlines()[:2]
                self.assertEqual(header, "thread,id,parent,op_id,name,start_ns,end_ns")


class NegativeControls(unittest.TestCase):
    def test_dropped_erases_fail_the_run(self):
        code, lines, result = run("churn-large", inject="drop-erase")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("final size" in l for l in lines))

    def test_out_of_order_scan_fails_the_run(self):
        code, lines, result = run("snapshot-scan-sharded", inject="scan-disorder")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("strictly ascending" in l for l in lines))


if __name__ == "__main__":
    unittest.main()
