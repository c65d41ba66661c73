"""Metric derivation for the Minuet benchmark.

Turns the driver's raw output directory (raw.json, lat_<kind>.bin,
stats_before.json / stats_after.json, spans.txt) into named metrics. Every
metric carries its unit; a percentile carries its sample count; a ratio
carries its base (the denominator's name and value).
"""

import json
import math
import os
import statistics
from array import array

# A percentile is reported only when at least this many samples lie beyond
# it, so one outlier cannot be the whole tail.
MIN_BEYOND = 10

ABORT_REASONS = ("validation_conflict", "stale_cache_pointer",
                 "retired_memnode", "lock_busy", "gc_horizon", "other")


class MetricError(Exception):
    """The data cannot support a metric the benchmark must report."""


class Metric:
    def __init__(self, name, value, unit, samples=None, base=None):
        self.name = name
        self.value = float(value)
        self.unit = unit
        self.samples = samples  # sample count behind a percentile or mean
        self.base = base        # (name, value) of a ratio's denominator

    def describe(self):
        text = "%-36s %14.6g %-8s" % (self.name, self.value, self.unit)
        if self.samples is not None:
            text += " samples=%d" % self.samples
        if self.base is not None:
            text += " base=%s:%g" % self.base
        return text

    def to_json(self):
        out = {"value": self.value, "unit": self.unit}
        if self.samples is not None:
            out["samples"] = self.samples
        if self.base is not None:
            out["base"] = {"name": self.base[0], "value": self.base[1]}
        return out


def percentile(sorted_samples, q):
    """Nearest-rank q-quantile (0 < q < 1) of ascending samples.

    Returns None when fewer than MIN_BEYOND samples lie above the rank: such
    a percentile is refused rather than reported.
    """
    n = len(sorted_samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted_samples[rank - 1]


def percentile_metric(name, samples, q, unit, scale):
    """A latency percentile of `samples` (ns), divided by `scale`."""
    ordered = sorted(samples)
    value = percentile(ordered, q)
    if value is None:
        raise MetricError("%s: %d samples leave fewer than %d beyond the "
                          "percentile" % (name, len(ordered), MIN_BEYOND))
    return Metric(name, value / scale, unit, samples=len(ordered))


def ratio(name, numerator, base_name, base_value, unit="ratio"):
    """numerator / base, carrying its base; 0 when the base is 0."""
    value = numerator / base_value if base_value else 0.0
    return Metric(name, value, unit, base=(base_name, base_value))


def self_time(op_wall, round_walls):
    """The op's wall time not covered by its coordinator rounds."""
    covered = sum(round_walls)
    if covered > op_wall:
        raise MetricError("rounds cover %d ns of a %d ns op" %
                          (covered, op_wall))
    return op_wall - covered


def mean_metric(name, values, unit):
    """Mean of timed calls; 0 with 0 samples when the workload made none."""
    value = statistics.fmean(values) if values else 0.0
    return Metric(name, value, unit, samples=len(values))


def round_mean(name, count, wall_ns):
    """Mean wall time of `count` round spans, in us."""
    return Metric(name, wall_ns / count / 1e3 if count else 0.0, "us",
                  samples=count)


# ---------------------------------------------------------------------------
# Raw input.

def load_latencies(out_dir, kind):
    """(start_ns since the window opened, wall_ns) of each untraced op."""
    samples = array("Q")
    with open(os.path.join(out_dir, "lat_%s.bin" % kind), "rb") as f:
        samples.frombytes(f.read())
    return list(zip(samples[0::2], samples[1::2]))


def parse_span_line(line):
    """One traced op record -> (kind, wall_ns, cpu_ns, msgs, round_trips,
    rounds [(label, participants, items, wall_ns)], aborts [reason])."""
    fields = line.split()
    rounds, aborts = [], []
    for tok in fields[7:]:
        if tok.startswith("r:"):
            label, parts, items, wall = tok[2:].rsplit(":", 3)
            rounds.append((label, int(parts), int(items), int(wall)))
        elif tok.startswith("a:"):
            aborts.append(tok[2:])
    return (fields[1], int(fields[3]), int(fields[4]), int(fields[5]),
            int(fields[6]), rounds, aborts)


def counters(stats):
    """Flatten a Cluster::DumpStatsJson snapshot into the summed counters
    the per-layer metrics use."""
    m = stats["metrics"]
    c = {
        "executions": m["coordinator"]["executions"],
        "busy_retries": m["coordinator"]["busy_retries"],
        "compare_aborts": m["coordinator"]["compare_aborts"],
        "txn_attempts": m["txn"]["attempts"],
        "node_decodes": m["btree"]["node_decodes"],
        "view_inits": m["btree"]["view_inits"],
    }
    for reason in ABORT_REASONS:
        c["abort." + reason] = m["txn"]["aborts." + reason]
    for key in ("acquires", "contended", "timeouts"):
        c["locks." + key] = sum(n.get("locks", {}).get(key, 0)
                                for n in stats["memnodes"])
    for key in ("appends", "append_bytes", "fsyncs"):
        c["wal." + key] = sum(n.get("wal", {}).get(key, 0)
                              for n in stats["memnodes"])
    for key in ("hits", "misses", "evictions"):
        c["cache." + key] = sum(p.get("cache", {}).get(key, 0)
                                for p in stats["proxies"])
    for key in ("op_aborts", "cow_copies", "discretionary_copies"):
        c["tree." + key] = sum(t.get("stats", {}).get(key, 0)
                               for t in stats["trees"])
    return c


def counter_deltas(before, after):
    a, b = counters(before), counters(after)
    return {k: b[k] - a[k] for k in a}


# ---------------------------------------------------------------------------
# End-to-end metrics (untraced run).

def end_to_end(raw, out_dir):
    """Every end-to-end metric: (gated, informational). Gated metrics exist
    on every workload. Informational ones exist only where their op runs,
    or (recovery_s) spread too widely from run to run to gate."""
    lat = {k: [wall for _, wall in load_latencies(out_dir, k)]
           for k in ("get", "put", "mget", "batch", "scan")}
    window = raw["window_s"][0]
    gated = [
        Metric("ops_per_s", raw["completed"][0] / window, "1/s",
               samples=int(raw["completed"][0])),
        percentile_metric("get_p50_us", lat["get"], 0.50, "us", 1e3),
        percentile_metric("get_p99_us", lat["get"], 0.99, "us", 1e3),
        percentile_metric("put_p50_us", lat["put"], 0.50, "us", 1e3),
        percentile_metric("put_p99_us", lat["put"], 0.99, "us", 1e3),
        ratio("space_amp", raw["live_node_bytes"], "user_bytes",
              raw["user_bytes"]),
        Metric("setup_s", statistics.median(raw["setup_s"]), "s",
               samples=len(raw["setup_s"])),
    ]
    info = [
        ratio("fail_ratio", raw["op_failures"] + raw["check_failures"],
              "attempted", raw["attempted"]),
        Metric("recovery_s", statistics.median(raw["recovery_s"]), "s",
               samples=len(raw["recovery_s"])),
    ]
    if lat["mget"]:
        info.append(percentile_metric("mget_p99_us", lat["mget"], 0.99,
                                      "us", 1e3))
    if lat["batch"]:
        info.append(percentile_metric("batch_p99_us", lat["batch"], 0.99,
                                      "us", 1e3))
    if lat["scan"]:
        info.append(Metric("scan_keys_per_s", raw["scan_keys"][0] / window,
                           "1/s", samples=len(lat["scan"])))
        ordered = sorted(lat["scan"])
        p = percentile(ordered, 0.99)
        if p is None:  # fall back to the highest supported percentile
            info.append(percentile_metric("scan_p90_ms", ordered, 0.90,
                                          "ms", 1e6))
        else:
            info.append(Metric("scan_p99_ms", p / 1e6, "ms",
                               samples=len(ordered)))
    return gated, info


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run).

def per_layer(raw, out_dir):
    with open(os.path.join(out_dir, "stats_before.json")) as f:
        before = json.load(f)
    with open(os.path.join(out_dir, "stats_after.json")) as f:
        after = json.load(f)
    d = counter_deltas(before, after)
    ops = raw["completed"][0] + raw["completed"][1]
    writes = raw["writes"]

    n_traced = 0
    self_ns = offcpu_ns = msgs = rtts = 0
    rounds = round_ns = 0
    by_label = {"1pc": [0, 0], "2pc": [0, 0]}  # label -> [rounds, wall ns]
    with open(os.path.join(out_dir, "spans.txt")) as f:
        for line in f:
            _, wall, cpu, m, rt, op_rounds, _ = parse_span_line(line)
            n_traced += 1
            self_ns += self_time(wall, [r[3] for r in op_rounds])
            offcpu_ns += max(0, wall - cpu)
            msgs += m
            rtts += rt
            for label, _, _, rwall in op_rounds:
                rounds += 1
                round_ns += rwall
                if label in by_label:
                    by_label[label][0] += 1
                    by_label[label][1] += rwall
    if n_traced == 0:
        raise MetricError("the traced run recorded no ops")

    timed = raw["timed"]
    probes = raw["probes"]
    traced_rate = raw["completed"][1] / raw["window_s"][1]
    untraced_rate = raw["completed"][0] / raw["window_s"][0]
    out = [
        ratio("proxy.self_us", self_ns / 1e3, "traced_ops", n_traced, "us"),
        ratio("op.offcpu_us", offcpu_ns / 1e3, "traced_ops", n_traced, "us"),
        ratio("btree.view_inits_per_op", d["view_inits"], "ops", ops, "1/op"),
        ratio("btree.node_decodes_per_op", d["node_decodes"], "ops", ops,
              "1/op"),
        ratio("btree.cow_copies_per_put", d["tree.cow_copies"], "writes",
              writes, "1/op"),
        ratio("btree.discretionary_copies_per_put",
              d["tree.discretionary_copies"], "writes", writes, "1/op"),
        ratio("tree.op_aborts_per_op", d["tree.op_aborts"], "ops", ops,
              "1/op"),
        ratio("txn.cache_hit_ratio", d["cache.hits"], "lookups",
              d["cache.hits"] + d["cache.misses"]),
        ratio("txn.cache_evictions_per_op", d["cache.evictions"], "ops", ops,
              "1/op"),
        ratio("txn.attempts_per_op", d["txn_attempts"], "ops", ops, "1/op"),
    ]
    for reason in ABORT_REASONS:
        out.append(ratio("txn.aborts.%s_per_op" % reason,
                         d["abort." + reason], "ops", ops, "1/op"))
    out += [
        ratio("sinfonia.rounds_per_op", rounds, "traced_ops", n_traced,
              "1/op"),
        round_mean("sinfonia.round_1pc_us", *by_label["1pc"]),
        round_mean("sinfonia.round_2pc_us", *by_label["2pc"]),
        ratio("sinfonia.round_us_per_op", round_ns / 1e3, "traced_ops",
              n_traced, "us"),
        ratio("sinfonia.two_phase_share", by_label["2pc"][0], "rounds",
              rounds),
        ratio("sinfonia.busy_retry_ratio", d["busy_retries"], "executions",
              d["executions"]),
        ratio("sinfonia.compare_abort_ratio", d["compare_aborts"],
              "executions", d["executions"]),
        ratio("locks.acquires_per_op", d["locks.acquires"], "ops", ops,
              "1/op"),
        ratio("locks.contended_ratio", d["locks.contended"], "acquires",
              d["locks.acquires"]),
        Metric("locks.timeouts", d["locks.timeouts"], "count"),
        Metric("locks.lock_unlock_ns", probes["lock_unlock_ns"], "ns"),
        Metric("memnode.execute_ns", probes["memnode_execute_ns"], "ns"),
        ratio("fabric.msgs_per_op", msgs, "traced_ops", n_traced, "1/op"),
        ratio("fabric.round_trips_per_op", rtts, "traced_ops", n_traced,
              "1/op"),
        ratio("wal.appends_per_op", d["wal.appends"], "ops", ops, "1/op"),
        ratio("wal.fsyncs_per_op", d["wal.fsyncs"], "ops", ops, "1/op"),
        ratio("wal.group_size", d["wal.appends"], "fsyncs", d["wal.fsyncs"],
              "count"),
        ratio("wal.bytes_per_user_byte", d["wal.append_bytes"],
              "user_write_bytes", raw["user_write_bytes"]),
        Metric("wal.append_sync_us", probes["wal_append_sync_us"], "us"),
        mean_metric("store.checkpoint_ms", timed["checkpoint_ms"], "ms"),
        ratio("store.recovery_replayed", raw["recovery_replayed"],
              "recoveries", len(raw["recovery_s"]), "count"),
        mean_metric("mvcc.snapshot_create_us", timed["snapshot_create_us"],
                    "us"),
        mean_metric("mvcc.gc_ms", timed["gc_ms"], "ms"),
        mean_metric("mvcc.gc_freed_per_pass", timed["gc_freed"], "count"),
        mean_metric("version.create_branch_ms", timed["create_branch_ms"],
                    "ms"),
        ratio("trace.overhead", traced_rate, "untraced_ops_per_s",
              untraced_rate),
    ]
    return out
