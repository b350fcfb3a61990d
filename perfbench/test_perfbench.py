"""Quick self-test of the benchmark, on tiny instant budgets (about 15 s).

    python3 perfbench/test_perfbench.py        (or: python3 -m pytest perfbench)

It checks that every metric BENCHMARK.json names is printed with its unit,
that the work counters repeat exactly, traced or not, and that a wrong
expected digest makes the run fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The first instants of each workload at seed 0, as the program ran them
# when the benchmark was defined.
TINY = {
    "young200": replace(
        WORKLOADS["young200"],
        instants=120,
        expect={
            "detections_total": 8,
            "unresolved": 0,
            "ctx_collisions": 0,
            "census": "f9c1fd68b7b90fe2d07a4fc8959d56f7458c90d4d9d88fea45fad0633ddbf6a5",
        },
        expect_at_file_seed={
            "report": "1d2c6e505971b2b967f8ac7cf5bf1531e8288e3c42a5a55a74d96500876e9707",
            "csv": "c637ad92a44e65f7d095e318d2e7241923c9e453afb786efd17cc71126e0845a",
        },
    ),
    "wavefront": replace(
        WORKLOADS["wavefront"],
        instants=30,
        expect={
            "ctx_collisions": 0,
            "snapshot": "60dbd0a41e0ff15e9e233ebce4ebe451f3a13a89f7e1783743a841581b3792ea",
        },
    ),
    "frames": replace(
        WORKLOADS["frames"],
        instants=12,
        expect={
            "census": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
        expect_at_file_seed={
            "frames": "ee76004c3ebe51b1fb3a8a8ccf6a7f525538700710ac91886ab3705a30c77c60",
        },
    ),
}


def emitted(result: run.Result, workload: str, trace: int) -> dict:
    """The result line the benchmark prints for this result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        run.emit(result, workload, trace, {})
    return json.loads(out.getvalue().strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.declared = json.loads((run.REPO / "BENCHMARK.json").read_text())

    def units(self, kind: str) -> dict:
        return {m["name"]: m["unit"] for m in self.declared[kind]}

    def test_declared_workloads_are_the_benchmarks(self):
        self.assertEqual(
            [(w["name"], w["why"]) for w in self.declared["workloads"]],
            [(w.name, w.why) for w in WORKLOADS.values()],
        )

    def test_timed_run_prints_every_end_to_end_metric(self):
        for name, wl in TINY.items():
            with self.subTest(workload=name):
                result = run.timed_session(wl, 0, seconds=0, setup_samples=2)
                line = emitted(result, name, 0)
                self.assertTrue(line["correct"], [r.failures for r in result.repeats])
                self.assertEqual((line["attempted"], line["failed"]), (run.MIN_REPEATS, 0))
                got = {k: v["unit"] for k, v in line["metrics"].items()}
                self.assertEqual(got, self.units("end_to_end"))
                m = {k: v["value"] for k, v in line["metrics"].items()}
                self.assertGreater(m["instant_ms.p50"], 0)
                self.assertGreaterEqual(m["instant_ms.tail"], m["instant_ms.p50"])
                first, second = (r.counters for r in result.repeats[:2])
                self.assertGreater(first["instants"], 0)
                self.assertEqual(first, second)

    def test_traced_run_prints_every_per_layer_metric(self):
        for name, wl in TINY.items():
            with self.subTest(workload=name):
                result = run.traced_session(wl, 0)
                line = emitted(result, name, 1)
                self.assertTrue(line["correct"], (result.problems, [r.failures for r in result.repeats]))
                got = {k: v["unit"] for k, v in line["metrics"].items()}
                self.assertEqual(got, self.units("per_layer"))
                untraced, traced = result.repeats
                self.assertEqual(untraced.counters, traced.counters)
                self.assertGreater(line["metrics"]["kernel.steps"]["value"], 0)

    def test_corrupted_digest_fails_the_run(self):
        for name, key in (("young200", "census"), ("wavefront", "snapshot"), ("frames", "frames")):
            wl = TINY[name]
            table = "expect_at_file_seed" if key in wl.expect_at_file_seed else "expect"
            pins = dict(getattr(wl, table))
            pins[key] = "0" * 64
            with self.subTest(workload=name, digest=key):
                result = run.timed_session(replace(wl, **{table: pins}), 0, seconds=0, setup_samples=1)
                line = emitted(result, name, 0)
                self.assertFalse(line["correct"])
                self.assertEqual(line["failed"], line["attempted"])
                self.assertIn(key, result.repeats[0].failures[0])


if __name__ == "__main__":
    unittest.main()
