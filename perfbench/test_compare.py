#!/usr/bin/env python3
"""Self-tests of compare.py's verdicts on synthetic result sets."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

LOWER = {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}
HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}


def runs(workload, values, name):
    return {(workload, seed): {"workload": workload, "seed": seed,
                               "end_to_end": {name: {"value": v}}}
            for seed, v in enumerate(values)}


def row(metric, base, change):
    benchmark = {"end_to_end": [metric]}
    rows = compare.compare(benchmark, runs("w", base, metric["name"]),
                           runs("w", change, metric["name"]))
    return rows[0][4]


class VerdictTest(unittest.TestCase):
    BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_clear_gain_is_improved(self):
        change = [v - 10 for v in self.BASE]
        self.assertEqual(row(LOWER, self.BASE, change), "improved")

    def test_gain_needs_ten_pairs(self):
        self.assertEqual(row(LOWER, self.BASE[:9],
                             [v - 10 for v in self.BASE[:9]]), "no worse")

    def test_gain_needs_nine_of_ten_wins(self):
        change = [v - 3 for v in self.BASE]
        change[0] = change[1] = 200  # two losses
        self.assertNotEqual(row(LOWER, self.BASE, change), "improved")

    def test_gain_must_exceed_base_spread(self):
        # Wins every pair, but by less than the base's interquartile range.
        change = [v - 0.5 for v in self.BASE]
        self.assertEqual(row(LOWER, self.BASE, change), "no worse")

    def test_worse_beyond_bound_is_regressed(self):
        change = [v * 1.2 for v in self.BASE]
        self.assertEqual(row(LOWER, self.BASE, change), "regressed")

    def test_worse_within_bound_is_no_worse(self):
        change = [v * 1.05 for v in self.BASE]
        self.assertEqual(row(LOWER, self.BASE, change), "no worse")

    def test_higher_is_better_direction(self):
        self.assertEqual(row(HIGHER, self.BASE, [v * 0.8 for v in self.BASE]),
                         "regressed")
        self.assertEqual(row(HIGHER, self.BASE, [v + 10 for v in self.BASE]),
                         "improved")

    def test_wide_spread_is_unresolved(self):
        noisy = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
        self.assertEqual(row(LOWER, noisy, [v * 1.05 for v in noisy]),
                         "unresolved")

    def test_wide_spread_but_always_better_is_not_unresolved(self):
        noisy = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
        self.assertNotEqual(row(LOWER, noisy, [10] * 10), "unresolved")


if __name__ == "__main__":
    unittest.main()
