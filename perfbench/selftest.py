#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of kumquat):

    python3 perfbench/selftest.py

Builds like run.py, then checks that every metric BENCHMARK.json names is
printed with its unit, that one corrupted output byte lowers pass_ratio
(the complement of the fail ratio), that a pipeline whose host tool is
missing is reported unverified and left out of pass_ratio, and that one
seed regenerates identical inputs. Runs on shrunken inputs (--scale).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCALE = 0.02
SPEC = os.path.join(run.ROOT, "BENCHMARK.json")
SCRATCH = os.path.join(run.BENCH, "selftest")


def digests(directory):
    return {os.path.relpath(os.path.join(root, f), directory):
            run.digest(os.path.join(root, f))
            for root, _, files in os.walk(directory) for f in files}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        for d in (run.WORK, run.TMP, run.RESULTS, SCRATCH):
            os.makedirs(d, exist_ok=True)

    def test_every_metric_printed_with_unit(self):
        with open(SPEC, encoding="utf-8") as f:
            spec = json.load(f)
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                out = subprocess.run(
                    [sys.executable, os.path.join(run.HERE, "run.py"),
                     "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--scale", str(SCALE)],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    check=True, cwd=run.ROOT)
                result = json.loads(out.stdout.decode().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertGreaterEqual(result["attempted"], 1)
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {name: m["unit"]
                       for name, m in result["metrics"].items()}
                self.assertEqual(got, want, (workload, trace))
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_corrupted_output_byte_lowers_pass_ratio(self):
        rec = run.setup_once("scan", 5, SCALE)
        rec["setup_s"], rec["deterministic"] = rec["seconds"], True
        pipelines, _, rss = run.measure_cli(rec, 0)
        clean, correct, _, failed, _ = run.score(pipelines, rec, rss)
        self.assertTrue(correct)
        self.assertEqual(failed, 0)
        ref = os.path.join(rec["wdir"], "ref", "1")
        with open(ref, "r+b") as f:
            byte = f.read(1)
            f.seek(0)
            f.write(bytes([byte[0] ^ 0x20]))
        pipelines, passes, rss = run.measure_cli(rec, 0)
        dirty, correct, attempted, failed, _ = run.score(pipelines, rec, rss)
        self.assertFalse(correct)
        self.assertEqual(failed, 2 * passes)  # its -k N and -k 1 runs
        self.assertLess(dirty["pass_ratio"], clean["pass_ratio"])
        self.assertEqual(dirty["pass_ratio"],
                         (attempted - failed) / attempted)

    def test_missing_tool_is_unverified(self):
        self.assertIsNone(run.missing_tool("sort | uniq -c | head -n 3"))
        self.assertIsNone(run.missing_tool("xargs -L 1 wc -l"))
        self.assertIn("no-such-tool",
                      run.missing_tool("tr a b | no-such-tool -x"))
        self.assertIn("no-such-tool",
                      run.missing_tool("xargs -n 2 no-such-tool | wc -l"))
        self.assertEqual(run.stage_programs("grep 'a|b' | wc -l"),
                         ["grep", "wc"])
        # An unverified pipeline counts in neither part of pass_ratio.
        rec = {"deterministic": True, "setup_s": 1.0}
        ok = {"seconds": 1.0, "ok": True, "match": True}
        bad = {"seconds": 1.0, "ok": False, "match": None}
        pipelines = [
            {"bytes": 1, "unverified": None, "kq": [ok], "kq1": [ok],
             "gnu": [ok]},
            {"bytes": 1, "unverified": "host tool 'x' not found",
             "kq": [bad], "kq1": [bad], "gnu": []},
        ]
        metrics, correct, attempted, failed, _ = run.score(pipelines, rec,
                                                           1.0)
        self.assertTrue(correct)
        self.assertEqual((attempted, failed), (2, 0))
        self.assertEqual(metrics["pass_ratio"], 1.0)

    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            dirs = [os.path.join(SCRATCH, "%s-%d" % (workload, i))
                    for i in range(3)]
            for d, seed in zip(dirs, (11, 11, 12)):
                shutil.rmtree(d, ignore_errors=True)
                subprocess.run([run.KQBENCH, "gen", workload, str(seed),
                                str(SCALE), d], stdout=subprocess.DEVNULL,
                               check=True)
            a, b, c = (digests(d) for d in dirs)
            self.assertEqual(a, b, workload)
            self.assertNotEqual(a, c, workload)


if __name__ == "__main__":
    unittest.main()
