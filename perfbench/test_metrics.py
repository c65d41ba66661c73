"""Tests for the benchmark's own metric code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import tempfile
import unittest
from array import array

import metrics


def stats_snapshot(executions=0, busy=0, hits=0, misses=0, appends=0,
                   fsyncs=0):
    """A minimal Cluster::DumpStatsJson shape."""
    txn = {"attempts": 0}
    for reason in metrics.ABORT_REASONS:
        txn["aborts." + reason] = 0
    return {
        "memnodes": [{"locks": {"acquires": 0, "contended": 0, "timeouts": 0},
                      "wal": {"appends": appends, "append_bytes": 0,
                              "fsyncs": fsyncs}}],
        "proxies": [{"cache": {"hits": hits, "misses": misses,
                               "evictions": 0}}],
        "trees": [{"stats": {"op_aborts": 0, "cow_copies": 0,
                             "discretionary_copies": 0}}],
        "metrics": {
            "coordinator": {"executions": executions, "busy_retries": busy,
                            "compare_aborts": 0},
            "txn": txn,
            "btree": {"node_decodes": 0, "view_inits": 0},
        },
    }


def raw_result(completed=(100, 100), window=(1.0, 1.0)):
    return {
        "completed": list(completed), "window_s": list(window),
        "writes": 10, "user_write_bytes": 220.0, "recovery_s": [0.1],
        "recovery_replayed": 0, "live_node_bytes": 3.0, "user_bytes": 1.0,
        "setup_s": [1.0, 2.0, 3.0], "op_failures": 0, "check_failures": 0,
        "attempted": 200, "scan_keys": [0, 0],
        "timed": {k: [] for k in ("checkpoint_ms", "snapshot_create_us",
                                  "gc_ms", "gc_freed", "create_branch_ms")},
        "probes": {"lock_unlock_ns": 1.0, "memnode_execute_ns": 1.0,
                   "wal_append_sync_us": 1.0},
    }


class PercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_samples_beyond(self):
        # p99 of 1000 samples sits at rank 990: exactly 10 lie beyond it.
        self.assertEqual(metrics.percentile(list(range(1, 1001)), 0.99), 990)
        # With 999 samples only 9 lie beyond rank 990: refused.
        self.assertIsNone(metrics.percentile(list(range(1, 1000)), 0.99))
        # A median needs 20 samples.
        self.assertEqual(metrics.percentile(list(range(1, 21)), 0.5), 10)
        self.assertIsNone(metrics.percentile(list(range(1, 20)), 0.5))
        self.assertIsNone(metrics.percentile([], 0.5))

    def test_percentile_metric_carries_sample_count(self):
        m = metrics.percentile_metric("get_p50_us", [2000] * 40, 0.5, "us",
                                      1e3)
        self.assertEqual(m.value, 2.0)
        self.assertEqual(m.samples, 40)
        self.assertIn("samples=40", m.describe())

    def test_percentile_metric_raises_when_refused(self):
        with self.assertRaises(metrics.MetricError):
            metrics.percentile_metric("get_p99_us", [1] * 500, 0.99, "us", 1)


class SelfTimeTest(unittest.TestCase):
    def test_subtracts_rounds(self):
        self.assertEqual(metrics.self_time(100, [30, 20]), 50)
        self.assertEqual(metrics.self_time(100, []), 100)
        self.assertEqual(metrics.self_time(100, [100]), 0)

    def test_rounds_longer_than_op_is_an_error(self):
        with self.assertRaises(metrics.MetricError):
            metrics.self_time(100, [60, 50])

    def test_parse_span_line(self):
        kind, wall, cpu, msgs, rtts, rounds, aborts = metrics.parse_span_line(
            "7 put 5 900 400 3 2 r:1pc:1:2:300 a:lock_busy r:2pc:2:6:250")
        self.assertEqual((kind, wall, cpu, msgs, rtts), ("put", 900, 400, 3, 2))
        self.assertEqual(rounds, [("1pc", 1, 2, 300), ("2pc", 2, 6, 250)])
        self.assertEqual(aborts, ["lock_busy"])
        self.assertEqual(metrics.self_time(wall, [r[3] for r in rounds]), 350)


class RatioBaseTest(unittest.TestCase):
    def test_ratio_keeps_base_and_tolerates_zero(self):
        r = metrics.ratio("wal.group_size", 0, "fsyncs", 0, "count")
        self.assertEqual(r.value, 0.0)
        self.assertEqual(r.base, ("fsyncs", 0))
        self.assertEqual(r.to_json()["base"], {"name": "fsyncs", "value": 0})

    def test_every_ratio_metric_carries_its_base(self):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "stats_before.json"), "w") as f:
                json.dump(stats_snapshot(), f)
            with open(os.path.join(d, "stats_after.json"), "w") as f:
                json.dump(stats_snapshot(executions=50, busy=5, hits=9,
                                         misses=1, appends=4, fsyncs=2), f)
            with open(os.path.join(d, "spans.txt"), "w") as f:
                f.write("1 get 0 1000 800 1 1 r:1pc:1:2:400\n")
            for kind in ("get", "put", "mget", "batch", "scan"):
                with open(os.path.join(d, "lat_%s.bin" % kind), "wb") as f:
                    array("Q", [1000] * 2000).tofile(f)
            raw = raw_result()
            layer = {m.name: m for m in metrics.per_layer(raw, d)}
            gated, info = metrics.end_to_end(raw, d)

        every = list(layer.values()) + gated + info
        for m in every:
            if "ratio" in m.name or m.name.endswith(("_per_op", "_per_put")) \
                    or m.unit == "ratio":
                self.assertIsNotNone(m.base, m.name)
        self.assertEqual(layer["txn.cache_hit_ratio"].value, 0.9)
        self.assertEqual(layer["txn.cache_hit_ratio"].base, ("lookups", 10))
        self.assertEqual(layer["sinfonia.busy_retry_ratio"].base,
                         ("executions", 50))
        self.assertEqual(layer["wal.group_size"].value, 2.0)
        self.assertEqual(layer["proxy.self_us"].value, 0.6)
        self.assertEqual(layer["trace.overhead"].base,
                         ("untraced_ops_per_s", 100.0))
        by_name = {m.name: m for m in gated + info}
        self.assertEqual(by_name["setup_s"].value, 2.0)
        self.assertEqual(by_name["space_amp"].base, ("user_bytes", 1.0))
        self.assertEqual(by_name["fail_ratio"].base, ("attempted", 200))


if __name__ == "__main__":
    unittest.main()
