"""Tests of the metric arithmetic in report.py.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import unittest

import report


def span(name, ts, dur, tid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1,
            "tid": tid}


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(report.percentile(values, 50), 50)
        self.assertEqual(report.percentile(values, 90), 90)
        self.assertEqual(report.percentile(values, 99), 99)
        self.assertEqual(report.percentile(values, 100), 100)
        self.assertEqual(report.percentile([7.5], 99), 7.5)
        self.assertEqual(report.percentile([], 50), 0.0)

    def test_order_does_not_matter(self):
        self.assertEqual(report.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_ten_beyond_the_percentile(self):
        # p90 of 100 samples leaves exactly 10 beyond it: supported.
        self.assertEqual(report.beyond(100, 90), 10)
        self.assertTrue(report.tail_supported(100, 90))
        # One sample fewer leaves 9: not a tail.
        self.assertEqual(report.beyond(99, 90), 9)
        self.assertFalse(report.tail_supported(99, 90))
        # p99 needs a thousand samples.
        self.assertTrue(report.tail_supported(1000, 99))
        self.assertFalse(report.tail_supported(999, 99))
        self.assertFalse(report.tail_supported(0, 50))


class SelfTimeTest(unittest.TestCase):
    def test_direct_children_only(self):
        # prefill [0, 100) holds build [10, 40), which holds train [15, 35);
        # a second child [50, 60) follows.
        events = [
            span("engine.prefill", 0, 100),
            span("pq.build", 10, 30),
            span("pq.train_span", 15, 20),
            span("other", 50, 10),
        ]
        self_us = {ev["name"]: s for ev, s in report.self_times(events)}
        self.assertEqual(self_us["engine.prefill"], 100 - 30 - 10)
        self.assertEqual(self_us["pq.build"], 30 - 20)
        self.assertEqual(self_us["pq.train_span"], 20)
        self.assertEqual(self_us["other"], 10)

    def test_tracks_are_separate(self):
        # A span on another thread overlapping in time is not a child.
        events = [span("engine.prefill", 0, 100, tid=1),
                  span("pq.train_span", 10, 50, tid=2)]
        self_us = [s for _, s in report.self_times(events)]
        self.assertEqual(self_us, [100, 50])

    def test_adjacent_spans_do_not_nest(self):
        # Back-to-back spans: the second starts where the first ends.
        events = [span("serve.round", 0, 10), span("serve.round", 10, 10)]
        self.assertEqual([s for _, s in report.self_times(events)], [10, 10])

    def test_same_start_longer_is_parent(self):
        events = [span("child", 0, 5), span("parent", 0, 20)]
        self_us = {ev["name"]: s for ev, s in report.self_times(events)}
        self.assertEqual(self_us, {"parent": 15, "child": 5})


class HistogramTest(unittest.TestCase):
    def test_median_interpolates_inside_its_bucket(self):
        # 4 samples in (1us, 2us], 4 in (2us, 4us]: the median is the top
        # of the first bucket.
        buckets = [(1e-6, 2e-6, 4), (2e-6, 4e-6, 4)]
        self.assertAlmostEqual(report.histogram_p50(buckets), 2e-6)
        buckets = [(1e-6, 2e-6, 2)]
        self.assertAlmostEqual(report.histogram_p50(buckets), 1.5e-6)
        self.assertEqual(report.histogram_p50([]), 0.0)

    def test_window_delta(self):
        begin = {"histograms": {"h": {"count": 2, "sum_seconds": 1.0,
                                      "buckets": [{"le": 1.6e-6, "count": 2}]}}}
        end = {"histograms": {"h": {"count": 5, "sum_seconds": 1.5,
                                    "buckets": [{"le": 1.6e-6, "count": 3},
                                                {"le": "+Inf", "count": 2}]}}}
        buckets, count, total = report.histogram_delta(begin, end, "h")
        self.assertEqual(count, 3)
        self.assertAlmostEqual(total, 0.5)
        self.assertEqual(buckets[0], (0.8e-6, 1.6e-6, 1))
        self.assertEqual(buckets[1][2], 2)


if __name__ == "__main__":
    unittest.main()
