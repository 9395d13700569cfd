"""Tests of the benchmark itself, on its small grids (seconds per run).

    python3 perfbench/test_perfbench.py

Run from the repository root.  They check the output schema against
BENCHMARK.json, that a perturbed reference is reported as a mismatch,
and that the count metrics repeat exactly across two traced runs.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ["paper-grid", "nn-domains", "adaptive-store"]
SEED = 20170626
REPEATING = ["adaptive.exps_executed", "adaptive.rounds", "checkpoint.points",
             "memory.restores_full", "memory.resets_undo", "batch.groups",
             "store.appends", "vm.suffix_instrs"]


def bench(workload, trace, seed=SEED):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                        "--size", "small"],
                       cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if r.returncode != 0:
        raise AssertionError("run.py failed:\n" + r.stderr)
    return json.loads(r.stdout.strip().splitlines()[-1])


class Schema(unittest.TestCase):
    def test_result_line(self):
        with open(run.SPEC) as f:
            spec = json.load(f)
        for wl in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl, trace=trace):
                    d = bench(wl, trace)
                    self.assertEqual(set(d), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(d["correct"])
                    self.assertEqual(d["failed"], 0)
                    self.assertGreaterEqual(d["attempted"], 1)
                    self.assertEqual(list(d["metrics"]), [m["name"] for m in spec[key]])
                    for m in spec[key]:
                        got = d["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                    if trace == 0:
                        for m in spec[key]:
                            self.assertGreater(d["metrics"][m["name"]]["value"], 0)


class Mismatch(unittest.TestCase):
    def test_perturbed_reference_is_reported(self):
        run.build()
        name = "paper-grid-small-%d.json" % SEED
        with open(os.path.join(HERE, "refs", name)) as f:
            cells = json.load(f)
        cells[0]["sdc"] += 1
        os.makedirs(run.WORK, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=run.WORK)
        try:
            os.makedirs(os.path.join(tmp, "refs"))
            with open(os.path.join(tmp, "refs", name), "w") as f:
                json.dump(cells, f)
            r = subprocess.run([run.EXE, "study", "--workload", "paper-grid", "--seed", str(SEED),
                                "--size", "small", "--seconds", "0", "--work", tmp,
                                "--refs-dir", os.path.join(tmp, "refs")],
                               capture_output=True, text=True, timeout=300)
            self.assertEqual(r.returncode, 0, r.stderr)
            d = json.loads(r.stdout.strip().splitlines()[-1])
            self.assertEqual(d["reference"], "refs")
            self.assertGreater(d["failed"], 0)
            self.assertIn(cells[0]["key"], d["failed_keys"])
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


class Counts(unittest.TestCase):
    def test_counts_repeat_at_one_seed(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                a, b = bench(wl, 1, seed=7), bench(wl, 1, seed=7)
                for m in REPEATING:
                    self.assertEqual(a["metrics"][m]["value"], b["metrics"][m]["value"], m)


if __name__ == "__main__":
    unittest.main()
