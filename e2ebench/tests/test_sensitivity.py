#!/usr/bin/env python3
"""Sensitivity self-test: does the comparison catch a real regression?

A synthetic delay of 10% of the model's CompiledMrf compile time is added,
on the benchmark side, to facade calls of one process (e2ebench warm
--inject-compile-delay 0.1).  The measured calls come in blocks of four:
unchanged, slowed, slowed, unchanged.  A block gives one pair, the mean of
its two unchanged calls against the mean of its two slowed ones, so a
drift that is linear over the block cancels.  Both sides of a pair run in
the same process, seconds apart, so the pairs are immune to the drift in
host speed and per-process state that moves whole runs on a shared machine
by up to 40%.  compare.py's paired rule must
  * flag call_p50_s on dense-coloring, where compile is ~64% of a call,
  * not flag sparse-hardcore, where compile is ~1% of a call, and
  * pass the unchanged program against itself (an A/A comparison: the same
    pairs of calls of a process without the delay).

Run from the root of a checkout (about 5 minutes on 4 cores):

    python3 e2ebench/tests/test_sensitivity.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import compare  # noqa: E402
import run  # noqa: E402

PAIRS = 10
DELAY = 0.10
# Measured seconds for PAIRS blocks of four calls, with room for a slow host.
SECONDS = {"dense-coloring": 55, "sparse-hardcore": 85}


def paired_blocks(workload, delay):
    """One process; returns, for each of the first PAIRS blocks of four
    measured calls, the mean of its outer calls and of its middle calls.
    With a delay, the middle calls are the slowed ones."""
    extra = ["--seconds", SECONDS[workload], "--skip-recheck", 1]
    if delay:
        extra += ["--inject-compile-delay", delay]
    result = run.run_e2ebench("warm", workload, 1, *extra, timeout=300)
    if result["failed"]:
        raise AssertionError(f"{workload}: {result['failed']} failed calls")
    lat = result["latencies_s"]
    if len(lat) < 4 * PAIRS:
        raise AssertionError(f"{workload}: only {len(lat)} calls measured")
    blocks = [lat[4 * j:4 * j + 4] for j in range(PAIRS)]
    return ([(b[0] + b[3]) / 2 for b in blocks],
            [(b[1] + b[2]) / 2 for b in blocks])


class CompileSlowdown(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check(self, workload, expect_flag):
        base, slowed = paired_blocks(workload, DELAY)
        first, second = paired_blocks(workload, 0.0)
        slowed_verdict = compare.compare_metric(base, slowed, "lower")
        same_verdict = compare.compare_metric(first, second, "lower")
        print(f"\n{workload}: slowed {slowed_verdict}\n{workload}: A/A "
              f"{same_verdict}", file=sys.stderr)
        self.assertEqual(same_verdict["verdict"], "unchanged")
        if expect_flag:
            self.assertEqual(slowed_verdict["verdict"], "regression")
        else:
            self.assertNotEqual(slowed_verdict["verdict"], "regression")

    def test_dense_coloring_is_flagged(self):
        self.check("dense-coloring", expect_flag=True)

    def test_sparse_hardcore_is_not_flagged(self):
        self.check("sparse-hardcore", expect_flag=False)


if __name__ == "__main__":
    unittest.main()
