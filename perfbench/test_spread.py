"""Tests of spread.py's quartile arithmetic on known inputs.

Run from the repository root: python3 -m unittest perfbench/test_spread.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spread import differs_by, spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartiles_of_one_to_ten(self):
        # statistics.quantiles' default (exclusive) method on 1..10:
        # Q1 at rank 2.75 -> 2.75, Q3 at rank 8.25 -> 8.25.
        med, q1, q3, s = spread(list(range(1, 11)))
        self.assertEqual(med, 5.5)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(s, 1.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(spread([4.0] * 10)[3], 0.0)

    def test_order_does_not_matter(self):
        self.assertEqual(spread([3, 1, 2, 5, 4]), spread([1, 2, 3, 4, 5]))

    def test_differs_by_counts_both_directions(self):
        self.assertAlmostEqual(differs_by(100, 110), 0.10)
        self.assertAlmostEqual(differs_by(100, 90), 0.10)
        self.assertAlmostEqual(differs_by(100, 167), 0.67)
        self.assertEqual(differs_by(0, 0), 0.0)


if __name__ == "__main__":
    unittest.main()
