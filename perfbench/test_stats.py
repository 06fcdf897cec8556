"""Tests of the benchmark's statistics on known inputs.

    python3 perfbench/test_stats.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_1_to_100(self):
        samples = list(range(100, 0, -1))  # order must not matter
        self.assertEqual(stats.percentile(samples, "50"), 50)
        self.assertEqual(stats.percentile(samples, "99"), 99)
        self.assertEqual(stats.percentile(samples, "100"), 100)
        self.assertEqual(stats.percentile(samples, "0"), 1)

    def test_rank_is_exact_for_decimal_percentiles(self):
        # 0.99 * 1000 is 989.9999999999999 in binary floating point; the
        # rank must still be 990, leaving exactly ten samples beyond.
        self.assertEqual(stats.rank(1000, "99"), 990)
        self.assertEqual(stats.beyond(1000, "99"), 10)
        self.assertEqual(stats.rank(10000, "99.9"), 9990)

    def test_percentile_is_a_sample(self):
        samples = [0.5, 1.5, 2.5, 3.5]
        self.assertEqual(stats.percentile(samples, "50"), 1.5)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            stats.percentile([], "50")


class QuietestTest(unittest.TestCase):
    def test_least_stolen_share_in_window_order(self):
        steal = [0.05, 0.0, 0.02, 0.01, 0.3, 0.04]
        probe = [1.0] * 6
        self.assertEqual(stats.quietest(steal, probe, 0.5), [1, 2, 3])
        self.assertEqual(stats.quietest(steal, probe, 0.2), [1, 3])  # ceil(1.2)
        self.assertEqual(stats.quietest(steal, probe, 1.0), list(range(6)))

    def test_steal_ties_go_to_the_fastest_probe(self):
        steal = [0.0, 0.0, 0.0, 0.0, 0.01]
        probe = [0.4, 0.3, 0.5, 0.3, 0.1]
        self.assertEqual(stats.quietest(steal, probe, 0.4), [1, 3])
        self.assertEqual(stats.quietest(steal, probe, 0.6), [0, 1, 3])

    def test_full_ties_go_to_the_earlier_window(self):
        self.assertEqual(stats.quietest([0.0] * 10, [1.0] * 10, 0.3), [0, 1, 2])

    def test_at_least_one_window(self):
        self.assertEqual(stats.quietest([0.2, 0.1], [1.0, 1.0], 0.0), [1])
        self.assertEqual(stats.quietest([], [], 0.5), [])


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), "50")
        self.assertEqual(stats.tail_percentile(99), "50")
        self.assertEqual(stats.tail_percentile(100), "90")
        self.assertEqual(stats.tail_percentile(999), "90")
        self.assertEqual(stats.tail_percentile(1000), "99")
        self.assertEqual(stats.tail_percentile(1233), "99")
        self.assertEqual(stats.tail_percentile(10000), "99.9")
        self.assertEqual(stats.tail_percentile(100000), "99.99")


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q[0], q[2]))

    def test_known_quartiles_and_spread(self):
        values = list(range(1, 11))  # exclusive method: 2.75 and 8.25
        self.assertEqual(stats.quartiles(values), (2.75, 8.25))
        self.assertAlmostEqual(stats.spread(values), 5.5 / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            (-1, 0, 100),  # root
            (0, 10, 30),   # child
            (1, 12, 20),   # grandchild
            (0, 40, 90),   # child
        ]
        self.assertEqual(stats.self_times(spans), [30, 12, 8, 50])
        self.assertEqual(sum(stats.self_times(spans)), 100)
        self.assertEqual(stats.nesting_errors(spans), [])

    def test_children_are_clipped_and_unioned(self):
        # Overlapping children count once; a part outside the parent is
        # not subtracted.
        spans = [(-1, 0, 10), (0, 2, 6), (0, 4, 8), (0, 9, 12)]
        self.assertEqual(stats.self_times(spans)[0], 10 - 6 - 1)

    def test_leaf_self_time_is_duration(self):
        self.assertEqual(stats.self_times([(-1, 5, 7)]), [2])

    def test_nesting_errors(self):
        escaping = [(-1, 0, 10), (0, 5, 11)]
        self.assertEqual(stats.nesting_errors(escaping), [1])
        overlapping = [(-1, 0, 10), (0, 1, 5), (0, 4, 6)]
        self.assertEqual(stats.nesting_errors(overlapping), [2])
        reversed_span = [(-1, 5, 4)]
        self.assertEqual(stats.nesting_errors(reversed_span), [0])


if __name__ == "__main__":
    unittest.main()
