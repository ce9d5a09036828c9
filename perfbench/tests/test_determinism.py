#!/usr/bin/env python3
"""Determinism self-test for the end-to-end benchmark.

    python3 perfbench/tests/test_determinism.py

For every workload, two short traced runs with the same seed must report
identical exact counts, and a run with another seed must change at least one
of them.  Every run must also pass the benchmark's correctness checks.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "run.py"
WORKLOADS = ("launch_vdesk256", "storm_tile32", "retitle_resize32")
# Counts that depend only on the seed.  oi.damage_area, oi.frames,
# oi.layouts, base.* and the timings depend on batching and are left out.
EXACT = (
    "xproto.requests", "xproto.bytes_in", "xproto.bytes_out", "xproto.events",
    "xproto.replies", "xlib.roundtrips", "xserver.draw_ops", "xserver.pixels_drawn",
    "oi.objects_painted", "xrdb.queries", "xrdb.trie_lookups", "xrdb.cache_hit_ratio",
    "swm.x_errors",
)


def exact_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{workload} seed {seed} failed its checks:\n{proc.stderr}")
    return {name: result["metrics"][name]["value"] for name in EXACT}


class DeterminismTest(unittest.TestCase):
    def test_same_seed_repeats_and_other_seed_differs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = exact_counts(workload, 1)
                self.assertEqual(first, exact_counts(workload, 1))
                self.assertNotEqual(first, exact_counts(workload, 2))


if __name__ == "__main__":
    unittest.main()
