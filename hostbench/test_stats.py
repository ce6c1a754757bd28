"""Unit tests for the benchmark's own statistics and checks.

    python3 hostbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_omitted_without_ten_samples_beyond(self):
        # p90 of 100 samples has exactly 10 beyond its rank (rank 90).
        self.assertEqual(stats.percentile(list(range(1, 101)), 90), 90)
        # 99 samples: rank 90, only 9 beyond -> omitted.
        self.assertIsNone(stats.percentile(list(range(1, 100)), 90))
        # p50 needs 20 samples.
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)
        self.assertIsNone(stats.percentile(list(range(1, 20)), 50))
        self.assertIsNone(stats.percentile([], 50))

    def test_nearest_rank_ignores_input_order(self):
        vals = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(stats.percentile(vals, 50), 3.0)

    def test_serve_latencies_leave_out_thin_percentiles(self):
        rounds = [{"hits_us": [[10.0, False]] * 30,
                   "misses_us": [20000.0] * 50}]
        lat, nh, nm = stats.serve_latencies(rounds)
        self.assertEqual((nh, nm), (30, 50))
        self.assertIn("hit_p50_us", lat)
        self.assertNotIn("hit_p90_us", lat)     # 3 beyond
        self.assertAlmostEqual(lat["miss_p50_ms"], 20.0)
        self.assertNotIn("miss_p90_ms", lat)    # 5 beyond


class PresetShareTest(unittest.TestCase):
    @staticmethod
    def hits(plain, preset):
        return ([(20.0 + i * 0.01, False) for i in range(plain)] +
                [(6000.0 + i, True) for i in range(preset)])

    def test_accepts_quarter_preset(self):
        self.assertIsNone(stats.check_preset_share(self.hits(300, 100)))

    def test_rejects_p90_among_plain_hits(self):
        err = stats.check_preset_share(self.hits(950, 50))
        self.assertIsNotNone(err)

    def test_rejects_p50_among_preset_hits(self):
        err = stats.check_preset_share(self.hits(400, 600))
        self.assertIsNotNone(err)

    def test_rejects_share_near_boundary(self):
        # 12% preset: p90 still lands among preset hits, but within the
        # margin of the class boundary.
        self.assertIsNotNone(stats.check_preset_share(self.hits(880, 120)))

    def test_rejects_slow_plain_hit_at_p90(self):
        # Slow plain hits (in-flight dedups) can push a plain reply to p90.
        hits = self.hits(300, 100) + [(9000.0 + i, False) for i in range(60)]
        self.assertIsNotNone(stats.check_preset_share(hits))


class CheckRawTest(unittest.TestCase):
    def raw(self, **kw):
        r = {"workload": "nas-sweep",
             "order": [["a", 20], ["b", 20], ["c", 20], ["d", 20], ["e", 10],
                       ["f", 10]],
             "rounds": [{"wall_s": 1.0, "cpu_s": 1.9, "hits_us": []}]}
        r.update(kw)
        return r

    def test_clean(self):
        self.assertEqual(stats.check_raw(self.raw()), [])

    def test_third_busy_thread(self):
        r = self.raw(rounds=[{"wall_s": 1.0, "cpu_s": 2.6, "hits_us": []}])
        self.assertEqual(len(stats.check_raw(r)), 1)

    def test_order_and_share(self):
        r = self.raw(order=[["a", 10], ["b", 20]])
        problems = stats.check_raw(r)
        self.assertTrue(any("longest first" in p for p in problems))
        self.assertTrue(any("of the batch" in p for p in problems))


class EndToEndTest(unittest.TestCase):
    def test_medians_over_rounds_after_the_first(self):
        raw = {"setup_s": [0.3, 0.1, 0.2],
               "rounds": [{"wall_s": w, "cpu_s": 2 * w, "events": 100,
                           "jobs": 10} for w in (9.0, 1.0, 2.0, 4.0)]}
        m = stats.end_to_end(raw)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["wall_s"], 2.0)
        self.assertEqual(m["cpu_s"], 4.0)
        self.assertEqual(m["events_per_s"], 50.0)
        self.assertEqual(m["jobs_per_s"], 5.0)


class TraceOverheadTest(unittest.TestCase):
    @staticmethod
    def rounds(walls):
        # Rounds 1, 3, 5, ... untraced; 2, 4, ... traced, as the binary runs them.
        return [{"wall_s": w, "traced": i % 2 == 1}
                for i, w in enumerate(walls)]

    def test_pairs_with_adjacent_untraced_rounds(self):
        # The host slows down through the run; each traced round costs 10 %
        # more than its neighbours, which the pairing recovers.
        walls = [9.0, 1.1 * 1.5, 2.0, 1.1 * 2.5, 3.0, 1.1 * 3.5, 4.0]
        self.assertAlmostEqual(stats.trace_overhead(self.rounds(walls)), 0.1)

    def test_cold_first_round_is_no_neighbour(self):
        walls = [100.0, 2.2, 2.0]
        self.assertAlmostEqual(stats.trace_overhead(self.rounds(walls)), 0.1)

    def test_none_without_a_pair(self):
        self.assertIsNone(stats.trace_overhead(self.rounds([1.0, 1.0])))
        self.assertIsNone(stats.trace_overhead(self.rounds([1.0])))


if __name__ == "__main__":
    unittest.main()
