"""Smoke test of the benchmark's own code at tiny sizes.

Run from the repository root (about a minute)::

    python3 e2ebench/smoke.py

Each workload runs once untraced and once traced; the test checks the
result line against ``BENCHMARK.json``, the per-layer time partition,
and that the input generator is deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

from inputs import StreamSampler, make_requests, poisson_schedule, rng_for  # noqa: E402
from layers import LAYERS  # noqa: E402

SECONDS = "1"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for shape in ("rcv1", "url"):
            a = StreamSampler(shape).draw(300, rng_for(5, "train"))
            b = StreamSampler(shape).draw(300, rng_for(5, "train"))
            c = StreamSampler(shape).draw(300, rng_for(6, "train"))
            for field in ("indptr", "indices", "values", "labels"):
                np.testing.assert_array_equal(getattr(a, field),
                                              getattr(b, field))
            self.assertFalse(np.array_equal(a.indices, c.indices))

    def test_examples_are_valid(self):
        batch = StreamSampler("rcv1").draw(200, rng_for(1, "x"))
        for ex in batch:
            self.assertEqual(np.unique(ex.indices).size, ex.indices.size)
            self.assertGreater(ex.indices.size, 0)

    def test_requests_and_schedule_deterministic(self):
        held = StreamSampler("rcv1").draw(50, rng_for(2, "heldout"))
        r1 = make_requests(40, 1000, held, seed=9)
        r2 = make_requests(40, 1000, held, seed=9)
        self.assertEqual([op for op, _ in r1], [op for op, _ in r2])
        np.testing.assert_array_equal(
            poisson_schedule(100, 50.0, rng_for(4, "arrivals")),
            poisson_schedule(100, 50.0, rng_for(4, "arrivals")))


class WorkloadTest(unittest.TestCase):
    def check_line(self, out: dict, declared: list) -> None:
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(out["correct"], True)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(list(out["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_each_workload_untraced_and_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                plain = run(w["name"], 0)
                self.check_line(plain, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(plain["metrics"][m["name"]]["value"],
                                       0, m["name"])
                traced = run(w["name"], 1)
                self.check_line(traced, SPEC["per_layer"])
                got = {k: v["value"] for k, v in traced["metrics"].items()}
                parts = sum(got[f"{layer}.layer_self_s"] for layer in LAYERS)
                self.assertAlmostEqual(parts + got["unattributed_s"],
                                       got["traced_wall_s"], places=6)
                self.assertGreater(got["trace_overhead"], 0)


if __name__ == "__main__":
    unittest.main()
