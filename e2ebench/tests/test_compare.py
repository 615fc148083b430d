#!/usr/bin/env python3
"""Unit tests of compare.py's paired regression rule on synthetic runs.

    python3 e2ebench/tests/test_compare.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import compare  # noqa: E402

BASE = [1.00, 1.02, 0.99, 1.01, 1.03, 0.98, 1.00, 1.01, 0.99, 1.02]


class PairedRule(unittest.TestCase):
    def test_consistent_slowdown_beyond_spread_is_a_regression(self):
        slowed = [b * 1.06 for b in BASE]
        r = compare.compare_metric(BASE, slowed, "lower")
        self.assertEqual(r["verdict"], "regression")
        self.assertEqual(r["worse_pairs"], 10)

    def test_higher_is_better_metrics_flip_the_sign(self):
        slowed = [b * 0.94 for b in BASE]
        self.assertEqual(compare.compare_metric(BASE, slowed, "higher")
                         ["verdict"], "regression")
        self.assertEqual(compare.compare_metric(BASE, slowed, "lower")
                         ["verdict"], "improvement")

    def test_slowdown_inside_the_base_spread_is_not_flagged(self):
        slowed = [b + 0.005 for b in BASE]
        self.assertEqual(compare.compare_metric(BASE, slowed, "lower")
                         ["verdict"], "unchanged")

    def test_mixed_pairs_are_not_flagged(self):
        shuffled = BASE[1:] + BASE[:1]
        self.assertEqual(compare.compare_metric(BASE, shuffled, "lower")
                         ["verdict"], "unchanged")

    def test_unequal_run_counts_are_refused(self):
        with self.assertRaises(ValueError):
            compare.compare_metric(BASE, BASE[:-1], "lower")


if __name__ == "__main__":
    unittest.main()
