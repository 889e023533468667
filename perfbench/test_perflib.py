"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perflib  # noqa: E402

# A real /proc/<pid>/task/<tid>/stat line, with a comm that holds both a
# space and a ')' to pin the last-parenthesis rule.
STAT = ("4242 (attest d) x) S 4200 4242 4200 0 -1 4194368 1200 0 0 0 "
        "731 412 0 0 20 0 3 0 98765 223344 1234 18446744073709551615 "
        "1 1 0 0 0 0 0 0 0 0 0 0 17 2 0 0 0 0 0")

STATUS = """Name:\tattestd
State:\tS (sleeping)
Tgid:\t4242
VmHWM:\t   88064 kB
VmRSS:\t   80120 kB
Threads:\t3
voluntary_ctxt_switches:\t5123
nonvoluntary_ctxt_switches:\t17
"""

SCRAPE_A = """# HELP sacha_net_bytes_tx Bytes sent
# TYPE sacha_net_bytes_tx counter
sacha_net_bytes_tx 1000
sacha_net_bytes_rx 50
sacha_attestd_session_ns_bucket{le="10"} 1
sacha_attestd_session_ns_bucket{le="100"} 2
sacha_attestd_session_ns_bucket{le="+Inf"} 2
"""

SCRAPE_B = """sacha_net_bytes_tx 4000
sacha_net_bytes_rx 80
sacha_attestd_session_ns_bucket{le="10"} 1
sacha_attestd_session_ns_bucket{le="100"} 6
sacha_attestd_session_ns_bucket{le="+Inf"} 12
sacha_coord_redirects 7
"""


class ProcParsers(unittest.TestCase):
    def test_task_stat_counts_fields_from_last_paren(self):
        stat = perflib.parse_task_stat(STAT)
        self.assertEqual(stat["state"], "S")
        self.assertEqual(stat["utime"], 731)
        self.assertEqual(stat["stime"], 412)
        self.assertEqual(stat["starttime"], 98765)

    def test_status_reads_integer_fields(self):
        status = perflib.parse_status(STATUS)
        self.assertEqual(status["VmHWM"], 88064)
        self.assertEqual(status["voluntary_ctxt_switches"], 5123)
        self.assertEqual(status["nonvoluntary_ctxt_switches"], 17)
        self.assertNotIn("Name", status)
        self.assertNotIn("State", status)

    def test_steal_is_the_eighth_cpu_field(self):
        text = "cpu  10 0 20 30 40 0 5 77 0 0\ncpu0 1 0 2 3 4 0 1 7 0 0\n"
        self.assertEqual(perflib.parse_proc_stat_steal(text), 77)

    def test_thread_roles_pick_earliest_non_main_thread_as_loop(self):
        snap = {"threads": {
            10: {"starttime": 100}, 14: {"starttime": 105},
            12: {"starttime": 103}, 13: {"starttime": 103}}}
        loop, workers = perflib.thread_roles(snap, 10)
        self.assertEqual(loop, 12)
        self.assertEqual(workers, [13, 14])

    def test_first_threads_follow_creation_order_after_main(self):
        snap = {"threads": {10: {}, 31: {}, 12: {}, 30: {}}}
        self.assertEqual(perflib.first_threads(snap, 10, 2), [12, 30])
        self.assertEqual(perflib.first_threads(snap, 10, 5), [12, 30, 31])

    def test_rotation_visits_every_cpu_without_sharing_one(self):
        cpus = [0, 1, 2, 3]
        steps = [perflib.rotation(cpus, 4, step) for step in range(4)]
        for placement in steps:
            self.assertEqual(sorted(placement), cpus)
        for thread in range(4):
            self.assertEqual(sorted(p[thread] for p in steps), cpus)
        # Fewer threads than CPUs: spread out, not packed together.
        self.assertEqual(perflib.rotation(cpus, 2, 0), [0, 2])
        self.assertEqual(perflib.rotation(cpus, 2, 3), [3, 1])

    def test_thread_delta_sums_selected_threads(self):
        def snap(u, s, v):
            return {"threads": {1: {"utime": u, "stime": s, "voluntary": v,
                                    "nonvoluntary": 0},
                                2: {"utime": 100, "stime": 100,
                                    "voluntary": 100, "nonvoluntary": 0}}}
        d = perflib.thread_delta(snap(5, 1, 10), snap(9, 4, 30), [1])
        self.assertEqual(d, {"utime": 4, "stime": 3, "voluntary": 20,
                             "nonvoluntary": 0})


class PrometheusDelta(unittest.TestCase):
    def test_parse_skips_comments_and_keeps_labels(self):
        parsed = perflib.parse_prometheus(SCRAPE_A)
        self.assertEqual(parsed["sacha_net_bytes_tx"], 1000.0)
        self.assertEqual(
            parsed['sacha_attestd_session_ns_bucket{le="+Inf"}'], 2.0)
        self.assertEqual(len(parsed), 5)

    def test_delta_counts_new_series_from_zero(self):
        delta = perflib.prom_delta(perflib.parse_prometheus(SCRAPE_A),
                                   perflib.parse_prometheus(SCRAPE_B))
        self.assertEqual(delta["sacha_net_bytes_tx"], 3000.0)
        self.assertEqual(delta["sacha_net_bytes_rx"], 30.0)
        self.assertEqual(delta["sacha_coord_redirects"], 7.0)

    def test_histogram_quantile_interpolates_inside_bucket(self):
        delta = perflib.prom_delta(perflib.parse_prometheus(SCRAPE_A),
                                   perflib.parse_prometheus(SCRAPE_B))
        # Window histogram: 0 in (0,10], 4 in (10,100], 6 above 100.
        # Median rank 5 lies past the last finite bucket.
        self.assertEqual(perflib.histogram_quantile(
            delta, "sacha_attestd_session_ns", 0.5), 100.0)
        # Rank 2 of 10 falls halfway into (10, 100].
        self.assertAlmostEqual(perflib.histogram_quantile(
            delta, "sacha_attestd_session_ns", 0.2), 55.0)

    def test_histogram_quantile_of_empty_window_is_zero(self):
        same = perflib.parse_prometheus(SCRAPE_A)
        self.assertEqual(perflib.histogram_quantile(
            perflib.prom_delta(same, same), "sacha_attestd_session_ns", 0.5),
            0.0)


class Percentiles(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(perflib.tail_percentile(100000), 99.0)
        self.assertEqual(perflib.tail_percentile(1000), 99.0)
        self.assertEqual(perflib.tail_percentile(999), 90.0)
        self.assertEqual(perflib.tail_percentile(100), 90.0)
        self.assertEqual(perflib.tail_percentile(40), 75.0)
        self.assertEqual(perflib.tail_percentile(39), 50.0)
        self.assertEqual(perflib.tail_percentile(16), 50.0)

    def test_quantile_interpolates(self):
        self.assertEqual(perflib.quantile([4, 1, 3, 2], 0.5), 2.5)
        self.assertEqual(perflib.quantile([7], 0.99), 7.0)
        self.assertEqual(perflib.quantile(list(range(101)), 0.99), 99.0)


class WindowAccounting(unittest.TestCase):
    # (start, end, attempted, ok, latencies)
    BATCHES = [(0, 100, 1, 1, [100]), (100, 300, 2, 2, [150, 200]),
               (300, 400, 1, 0, [])]

    def test_edges_credit_the_share_inside_the_window(self):
        ok, attempted = perflib.window_credit(self.BATCHES, 50, 200)
        self.assertAlmostEqual(ok, 0.5 + 1.0)
        self.assertAlmostEqual(attempted, 0.5 + 1.0)

    def test_failed_sessions_count_as_attempted_only(self):
        ok, attempted = perflib.window_credit(self.BATCHES, 300, 400)
        self.assertEqual((ok, attempted), (0.0, 1.0))

    def test_latencies_follow_batch_end(self):
        self.assertEqual(perflib.window_latencies(self.BATCHES, 0, 300),
                         [100, 150, 200])
        self.assertEqual(perflib.window_latencies(self.BATCHES, 100, 400),
                         [150, 200])

    def test_subwindow_rates(self):
        samples = [(0, 0), (100, 50_000_000), (300, 150_000_000)]
        rates = perflib.subwindow_rates(self.BATCHES, samples)
        self.assertEqual(len(rates), 2)
        self.assertAlmostEqual(rates[0][0], 1 / (100 / 1e9))
        self.assertAlmostEqual(rates[0][1], 50.0)
        self.assertAlmostEqual(rates[1][1], 50.0)

    def test_subwindow_latency_p50_skips_empty_subwindows(self):
        samples = [(0, 0), (100, 0), (250, 0), (300, 0), (400, 0)]
        self.assertEqual(
            perflib.subwindow_latency_p50(self.BATCHES, samples),
            [100, 175.0])


if __name__ == "__main__":
    unittest.main()
