// perfbench driver: runs one named closed-loop workload against an
// in-process Minuet cluster, checks the outputs, and writes the raw
// measurements (latency samples, per-op span records, stats snapshots,
// timed layer calls, probes) into an output directory. run.py derives the
// metrics from those files; see README.md for the workloads and metrics.
//
// Usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                         --out DIR
//
// Every client is a closed loop (it issues its next op only after the
// previous one returned), one thread per client, one proxy per client.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/key_codec.h"
#include "common/random.h"
#include "minuet/cluster.h"
#include "sinfonia/lock_table.h"
#include "sinfonia/memnode.h"
#include "wal/wal.h"

namespace {

using namespace minuet;
namespace fs = std::filesystem;

constexpr uint32_t kClients = 4;
constexpr uint32_t kMachines = 4;
constexpr int kSetupRepeats = 5;
// The traced run alternates untraced and traced phases of this length, so
// both modes see the same cluster state and trace.overhead compares like
// with like.
constexpr uint64_t kPhaseNs = 500'000'000;
// Crash/recover rounds behind recovery_s: crash-all rounds (write-sync) and
// single-memnode rounds (four per memnode).
constexpr int kCrashAllRounds = 11;
constexpr int kCrashOneRounds = 16;

enum Kind : uint8_t { kGet, kPut, kMultiGet, kBatch, kScan, kNumKinds };
constexpr const char* kKindNames[kNumKinds] = {"get", "put", "mget", "batch",
                                               "scan"};

uint64_t NowNs() { return obs::NowNs(); }

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Progress lines on stderr, so a slow or stuck phase can be located.
void Note(const std::string& msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
  std::exit(2);
}

void CheckOk(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

// Client values are (client+1) << 40 | seq, so they never collide with a
// preloaded value (the record id) or with another client's value.
constexpr int kValueClientShift = 40;
uint64_t ClientValue(uint32_t client, uint64_t seq) {
  return (static_cast<uint64_t>(client + 1) << kValueClientShift) | seq;
}
int ValueClient(uint64_t v) {
  return static_cast<int>(v >> kValueClientShift) - 1;
}

// One span of a traced op, as recorded by obs::TraceContext.
struct SpanRec {
  bool round = false;
  const char* label = "";
  int participants = 0;
  int items = 0;
  uint64_t wall_ns = 0;
  AbortReason reason = AbortReason::kNone;
};

// One traced op: its spans are spans[first_span, first_span + n_spans).
struct OpRec {
  uint64_t id = 0;
  Kind kind = kGet;
  uint64_t start_ns = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t msgs = 0;
  uint64_t round_trips = 0;
  uint32_t first_span = 0;
  uint32_t n_spans = 0;
};

// Writes to a linear tree's tip are recorded under this version.
constexpr uint64_t kLinearTip = 0;

// One write of `value` to `key` on version `branch`, with its invocation
// interval; the end-of-run checks decide which values a key may hold.
struct WriteRec {
  uint64_t key = 0;
  uint64_t value = 0;
  uint64_t branch = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

struct ClientLog {
  // Untraced ops only: (start ns since the window opened, wall ns) pairs.
  std::vector<uint64_t> lat[kNumKinds];
  std::vector<OpRec> ops;                // traced ops only
  std::vector<SpanRec> spans;
  std::vector<WriteRec> writes;
  uint64_t completed[2] = {0, 0};  // ok ops started untraced / traced
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t seq = 0;
  uint64_t scan_keys[2] = {0, 0};
  std::string first_error;
  // The op in flight, for the stall watchdog: its kind and start (0 = idle).
  std::atomic<int> op_kind{0};
  std::atomic<uint64_t> op_start_ns{0};
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

// Timed calls into layer entry points, collected outside the per-op path.
struct Timed {
  std::vector<double> checkpoint_ms;
  std::vector<double> snapshot_create_us;
  std::vector<double> gc_ms;
  std::vector<double> gc_freed;
  std::vector<double> create_branch_ms;
};

struct Bench {
  Args args;
  std::unique_ptr<Cluster> cluster;
  TreeHandle tree;
  uint64_t records = 0;
  std::vector<ClientLog> logs{kClients};
  std::atomic<bool> stop{false};
  std::atomic<bool> traced{false};
  uint64_t window_start_ns = 0;
  Timed timed;
  std::mutex timed_mu;
  std::string data_root;  // durable state of write-sync clusters
  int setups = 0;
  uint64_t checks = 0;
  uint64_t check_failures = 0;
  std::vector<std::string> check_errors;

  void CheckFail(const std::string& msg) {
    check_failures++;
    if (check_errors.size() < 8) check_errors.push_back(msg);
  }
};

// Runs one client op, timing it and (in traced phases) recording its span
// record. The op starts in the mode `traced` holds when it is invoked.
class Client {
 public:
  Client(Bench* bench, uint32_t id)
      : bench_(bench), id_(id), log_(&bench->logs[id]) {}

  uint32_t id() const { return id_; }
  ClientLog& log() { return *log_; }
  Proxy& proxy() { return bench_->cluster->proxy(id_); }
  bool traced() const { return bench_->traced.load(std::memory_order_relaxed); }

  template <typename Fn>
  Status Run(Kind kind, Fn&& fn) {
    const bool traced_op = traced();
    log_->attempted++;
    log_->op_kind.store(kind, std::memory_order_relaxed);
    log_->op_start_ns.store(NowNs(), std::memory_order_relaxed);
    Status st;
    if (!traced_op) {
      const uint64_t t0 = NowNs();
      st = fn();
      const uint64_t wall = NowNs() - t0;
      if (st.ok()) {
        log_->lat[kind].push_back(t0 - bench_->window_start_ns);
        log_->lat[kind].push_back(wall);
      }
    } else {
      trace_.Clear();
      op_trace_.Reset(bench_->cluster->n_memnodes());
      obs::ScopedTrace scoped(&trace_);
      net::Fabric::SetThreadTrace(&op_trace_);
      const uint64_t t0 = NowNs();
      const uint64_t c0 = ThreadCpuNs();
      st = fn();
      const uint64_t c1 = ThreadCpuNs();
      const uint64_t wall = NowNs() - t0;
      net::Fabric::SetThreadTrace(nullptr);
      OpRec rec;
      rec.id = (static_cast<uint64_t>(id_) << 48) | log_->attempted;
      rec.kind = kind;
      rec.start_ns = t0;
      rec.wall_ns = wall;
      rec.cpu_ns = c1 - c0;
      rec.msgs = op_trace_.messages;
      rec.round_trips = op_trace_.round_trips;
      rec.first_span = static_cast<uint32_t>(log_->spans.size());
      for (const obs::TraceSpan& s : trace_.spans()) {
        SpanRec sr;
        sr.round = s.kind == obs::TraceSpan::Kind::kRound;
        sr.label = s.label;
        sr.participants = s.participants;
        sr.items = s.items;
        sr.wall_ns = s.wall_ns;
        sr.reason = s.reason;
        log_->spans.push_back(sr);
      }
      rec.n_spans = static_cast<uint32_t>(log_->spans.size()) - rec.first_span;
      if (st.ok()) log_->ops.push_back(rec);
    }
    log_->op_start_ns.store(0, std::memory_order_relaxed);
    if (st.ok()) {
      log_->completed[traced_op ? 1 : 0]++;
    } else {
      log_->failed++;
      if (log_->first_error.empty()) {
        log_->first_error = std::string(kKindNames[kind]) + ": " +
                            st.ToString();
      }
    }
    return st;
  }

  // A timed write of a fresh client value to `keys`, recorded for the
  // checks under `branch`. The branch is read after the op returns: a
  // branch write may move to a new tip mid-op.
  template <typename Fn>
  Status RunWrite(Kind kind, const std::vector<uint64_t>& keys, Fn&& fn,
                  const uint64_t& branch = kLinearTip) {
    const uint64_t value = ClientValue(id_, log_->seq++);
    const uint64_t t0 = NowNs();
    Status st = Run(kind, [&] { return fn(value); });
    // A failed write may or may not have landed: it stays a candidate
    // value forever (end = max).
    const uint64_t t1 = st.ok() ? NowNs() : ~0ULL;
    for (uint64_t k : keys) log_->writes.push_back({k, value, branch, t0, t1});
    return st;
  }

 private:
  Bench* bench_;
  uint32_t id_;
  ClientLog* log_;
  obs::TraceContext trace_;
  net::OpTrace op_trace_;
};

// ---------------------------------------------------------------------------
// Workload definitions.

struct WorkloadDef {
  const char* name;
  uint64_t records;
  bool branching;
  wal::DurabilityMode durability;
};

const WorkloadDef kWorkloads[] = {
    {"oltp-point", 100000, false, wal::DurabilityMode::kNone},
    {"write-sync", 20000, false, wal::DurabilityMode::kSync},
    {"htap-scan", 100000, false, wal::DurabilityMode::kNone},
    {"whatif-branch", 20000, true, wal::DurabilityMode::kNone},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// write-sync: client 0 checkpoints every this many of its own ops; after
// the window, kRecoveryTail acked writes follow the last checkpoint before
// each crash-all.
constexpr uint64_t kCheckpointEvery = 10000;
constexpr uint64_t kRecoveryTail = 200;
// htap-scan: keys per scan and the GC cadence (in scans).
constexpr uint64_t kScanKeys = 2000;
constexpr uint64_t kGcEveryScans = 16;
// whatif-branch: client 0 forks the mainline every this many own ops.
constexpr uint64_t kForkEvery = 2000;
constexpr uint64_t kMultiGetKeys = 16;
// A record's user bytes: a 14-byte key and an 8-byte value.
constexpr double kRecordBytes = 14 + 8;
constexpr uint64_t kBatchKeys = 4;

// Live branch tips of whatif-branch: clients 0 and 1 work on the mainline,
// clients 2 and 3 on the newest side branch.
struct Tips {
  std::mutex mu;
  uint64_t mainline = 0;
  uint64_t side = 0;
  std::atomic<uint64_t> generation{0};
  std::vector<std::pair<uint64_t, uint64_t>> forks;  // (mainline, side)
};

// ---------------------------------------------------------------------------
// Set-up: cluster construction, preload, warm-up.

ClusterOptions OptionsFor(const WorkloadDef& w, const std::string& data_dir) {
  ClusterOptions opts;
  opts.machines = kMachines;
  opts.replication = true;
  opts.durability = w.durability;
  if (w.durability != wal::DurabilityMode::kNone) opts.data_dir = data_dir;
  return opts;
}

// One client loads every record in key order, in batches: a parallel load
// would leave a timing-dependent tree (split points, memnode placement), and
// with it run-to-run differences no workload seed explains.
void Preload(Bench& b, const WorkloadDef& w, uint64_t branch_sid) {
  Proxy& p = b.cluster->proxy(0);
  WriteBatch batch;
  for (uint64_t k = 0; k < b.records; k++) {
    if (w.branching) {
      batch.BranchPut(b.tree, branch_sid, EncodeUserKey(k), EncodeValue(k));
    } else {
      batch.Put(b.tree, EncodeUserKey(k), EncodeValue(k));
    }
    if (batch.size() == 64 || k + 1 == b.records) {
      CheckOk(p.Apply(batch), "preload");
      batch.Clear();
    }
  }
}

// Warm every proxy's cache with uniform reads of the preloaded version.
void WarmUp(Bench& b, const WorkloadDef& w, uint64_t sid) {
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kClients; t++) {
    threads.emplace_back([&b, &w, t, sid] {
      Proxy& p = b.cluster->proxy(t);
      Rng rng(b.args.seed * 7919 + t);
      std::string v;
      std::optional<BranchView> branch;
      if (w.branching) {
        auto view = p.Branch(b.tree, sid);
        CheckOk(view.status(), "warm-up branch view");
        branch.emplace(std::move(*view));
      }
      for (int i = 0; i < 3000; i++) {
        const std::string key = EncodeUserKey(rng.Uniform(b.records));
        Status st = branch ? branch->Get(key, &v) : p.Tip(b.tree).Get(key, &v);
        CheckOk(st, "warm-up get");
      }
    });
  }
  for (auto& t : threads) t.join();
}

// Returns the set-up time; leaves the cluster in b.cluster.
double SetupOnce(Bench& b, const WorkloadDef& w, Tips* tips) {
  auto setup_dir = [&b](int i) {
    return b.data_root + "/setup" + std::to_string(i);
  };
  if (b.cluster) {
    b.cluster.reset();
    std::error_code ec;
    fs::remove_all(setup_dir(b.setups - 1), ec);
  }
  const std::string dir = setup_dir(b.setups++);
  const uint64_t t0 = NowNs();
  b.cluster = std::make_unique<Cluster>(OptionsFor(w, dir));
  auto tree = b.cluster->CreateTree(w.branching);
  CheckOk(tree.status(), "create tree");
  b.tree = *tree;
  Preload(b, w, 0);
  uint64_t warm_sid = 0;
  if (w.branching) {
    // The first fork happens in set-up, so the window starts with a
    // mainline and a side branch.
    Proxy& p = b.cluster->proxy(0);
    auto main = p.CreateBranch(b.tree, 0);
    CheckOk(main.status(), "fork mainline");
    auto side = p.CreateBranch(b.tree, 0);
    CheckOk(side.status(), "fork side");
    std::lock_guard<std::mutex> lock(tips->mu);
    tips->mainline = *main;
    tips->side = *side;
    tips->forks.assign(1, {*main, *side});
    tips->generation.store(1);
    warm_sid = *main;
  }
  WarmUp(b, w, warm_sid);
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// ---------------------------------------------------------------------------
// Client bodies.

void OltpPointClient(Bench& b, Client& c,
                     const ScrambledZipfianGenerator& zipf) {
  Rng rng(b.args.seed * 1000003 + c.id());
  TipView tip = c.proxy().Tip(b.tree);
  std::string v;
  std::vector<std::string> keys(kMultiGetKeys);
  std::vector<std::optional<std::string>> values;
  while (!b.stop.load(std::memory_order_relaxed)) {
    const uint64_t r = rng.Uniform(100);
    const uint64_t k = zipf.Next(rng);
    if (r < 94) {
      (void)c.Run(kGet, [&] { return tip.Get(EncodeUserKey(k), &v); });
    } else if (r < 99) {
      (void)c.RunWrite(kPut, {k}, [&](uint64_t value) {
        return tip.Put(EncodeUserKey(k), EncodeValue(value));
      });
    } else {
      for (auto& key : keys) key = EncodeUserKey(zipf.Next(rng));
      (void)c.Run(kMultiGet, [&] { return tip.MultiGet(keys, &values); });
    }
  }
}

void WriteSyncClient(Bench& b, Client& c) {
  Rng rng(b.args.seed * 1000003 + c.id());
  TipView tip = c.proxy().Tip(b.tree);
  std::string v;
  uint64_t own_ops = 0;
  while (!b.stop.load(std::memory_order_relaxed)) {
    const uint64_t r = rng.Uniform(100);
    if (r < 75) {
      const uint64_t k = rng.Uniform(b.records);
      (void)c.RunWrite(kPut, {k}, [&](uint64_t value) {
        return tip.Put(EncodeUserKey(k), EncodeValue(value));
      });
    } else if (r < 95) {
      std::vector<uint64_t> keys;
      while (keys.size() < kBatchKeys) {
        const uint64_t k = rng.Uniform(b.records);
        if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
          keys.push_back(k);
        }
      }
      (void)c.RunWrite(kBatch, keys, [&](uint64_t value) {
        WriteBatch batch;
        for (uint64_t k : keys) {
          batch.Put(b.tree, EncodeUserKey(k), EncodeValue(value));
        }
        return c.proxy().Apply(batch);
      });
    } else {
      const uint64_t k = rng.Uniform(b.records);
      (void)c.Run(kGet, [&] { return tip.Get(EncodeUserKey(k), &v); });
    }
    if (c.id() == 0 && ++own_ops % kCheckpointEvery == 0) {
      const uint64_t t0 = NowNs();
      CheckOk(b.cluster->CheckpointAll(), "checkpoint");
      std::lock_guard<std::mutex> lock(b.timed_mu);
      b.timed.checkpoint_ms.push_back((NowNs() - t0) / 1e6);
    }
  }
}

// Checks one scan: strictly ascending keys, exactly kScanKeys of them,
// starting at `start` (keys are only ever overwritten).
bool ScanIsValid(const std::vector<std::string>& keys, uint64_t start) {
  if (keys.size() != kScanKeys) return false;
  if (keys.front() != EncodeUserKey(start)) return false;
  for (size_t i = 1; i < keys.size(); i++) {
    if (!(keys[i - 1] < keys[i])) return false;
  }
  return true;
}

void HtapScanner(Bench& b, Client& c) {
  Rng rng(b.args.seed * 1000003 + c.id());
  uint64_t scans = 0;
  std::vector<std::string> keys;
  keys.reserve(kScanKeys);
  while (!b.stop.load(std::memory_order_relaxed)) {
    const uint64_t start = rng.Uniform(b.records - kScanKeys + 1);
    bool valid = true;
    const bool traced_scan = c.traced();
    Status st = c.Run(kScan, [&] {
      const uint64_t t0 = NowNs();
      auto snap = c.proxy().Snapshot(b.tree);
      const uint64_t t1 = NowNs();
      if (!snap.ok()) return snap.status();
      {
        std::lock_guard<std::mutex> lock(b.timed_mu);
        b.timed.snapshot_create_us.push_back((t1 - t0) / 1e3);
      }
      Cursor::Options opts;
      opts.limit = kScanKeys;
      auto cur = snap->NewCursor(EncodeUserKey(start), opts);
      keys.clear();
      for (; cur->Valid(); cur->Next()) keys.push_back(cur->key());
      if (!cur->status().ok()) return cur->status();
      valid = ScanIsValid(keys, start);
      return Status::OK();
    });
    if (st.ok()) {
      c.log().scan_keys[traced_scan ? 1 : 0] += keys.size();
      b.checks++;
      if (!valid) {
        b.CheckFail("scan from " + std::to_string(start) + " returned " +
                    std::to_string(keys.size()) + " keys, not " +
                    std::to_string(kScanKeys) + " ascending");
      }
    }
    if (++scans % kGcEveryScans == 0) {
      const uint64_t t0 = NowNs();
      auto report = b.cluster->CollectGarbage(b.tree);
      CheckOk(report.status(), "collect garbage");
      std::lock_guard<std::mutex> lock(b.timed_mu);
      b.timed.gc_ms.push_back((NowNs() - t0) / 1e6);
      b.timed.gc_freed.push_back(static_cast<double>(report->freed));
    }
  }
}

void HtapWriter(Bench& b, Client& c) {
  Rng rng(b.args.seed * 1000003 + c.id());
  TipView tip = c.proxy().Tip(b.tree);
  std::string v;
  while (!b.stop.load(std::memory_order_relaxed)) {
    const uint64_t k = rng.Uniform(b.records);
    if (rng.Uniform(100) < 95) {
      (void)c.RunWrite(kPut, {k}, [&](uint64_t value) {
        return tip.Put(EncodeUserKey(k), EncodeValue(value));
      });
    } else {
      (void)c.Run(kGet, [&] { return tip.Get(EncodeUserKey(k), &v); });
    }
  }
}

void WhatifClient(Bench& b, Client& c, Tips& tips) {
  Rng rng(b.args.seed * 1000003 + c.id());
  const bool on_side = c.id() >= 2;
  uint64_t gen = ~0ULL;
  uint64_t sid = 0;
  std::optional<BranchView> view;
  auto refresh = [&]() -> Status {
    std::lock_guard<std::mutex> lock(tips.mu);
    gen = tips.generation.load();
    sid = on_side ? tips.side : tips.mainline;
    auto v = c.proxy().Branch(b.tree, sid);
    if (!v.ok()) return v.status();
    view.emplace(std::move(*v));
    return Status::OK();
  };
  std::string v;
  uint64_t own_ops = 0;
  while (!b.stop.load(std::memory_order_relaxed)) {
    if (gen != tips.generation.load(std::memory_order_acquire)) {
      CheckOk(refresh(), "branch view");
    }
    const uint64_t k = rng.Uniform(b.records);
    if (rng.Uniform(2) == 0) {
      (void)c.Run(kGet, [&] { return view->Get(EncodeUserKey(k), &v); });
    } else {
      // A fork can freeze the tip between the refresh and the write; the
      // client then moves to the new tip and writes there, inside the
      // same timed op.
      (void)c.RunWrite(
          kPut, {k},
          [&](uint64_t value) {
            for (;;) {
              Status st = view->Put(EncodeUserKey(k), EncodeValue(value));
              if (!st.IsReadOnly()) return st;
              Status rs = refresh();
              if (!rs.ok()) return rs;
            }
          },
          sid);
    }
    if (c.id() == 0 && ++own_ops % kForkEvery == 0) {
      uint64_t from = 0;
      {
        std::lock_guard<std::mutex> lock(tips.mu);
        from = tips.mainline;
      }
      const uint64_t t0 = NowNs();
      auto main = c.proxy().CreateBranch(b.tree, from);
      CheckOk(main.status(), "fork mainline");
      const uint64_t t1 = NowNs();
      auto side = c.proxy().CreateBranch(b.tree, from);
      CheckOk(side.status(), "fork side");
      const uint64_t t2 = NowNs();
      {
        std::lock_guard<std::mutex> lock(b.timed_mu);
        b.timed.create_branch_ms.push_back((t1 - t0) / 1e6);
        b.timed.create_branch_ms.push_back((t2 - t1) / 1e6);
      }
      std::lock_guard<std::mutex> lock(tips.mu);
      tips.mainline = *main;
      tips.side = *side;
      tips.forks.push_back({*main, *side});
      tips.generation.fetch_add(1, std::memory_order_release);
    }
  }
}

// ---------------------------------------------------------------------------
// Measured window.

struct Window {
  double seconds[2] = {0, 0};  // untraced, traced
};

// Waits for every client to return from its last op. An op that does not
// return within kStallSeconds is a hang in the code under test: the run
// reports which op stalled and exits without a result (a spinning thread
// cannot be joined).
constexpr uint64_t kStallSeconds = 30;

void AwaitClients(const Bench& b, const std::atomic<uint32_t>& finished) {
  const uint64_t deadline = NowNs() + kStallSeconds * 1'000'000'000ULL;
  while (finished.load() < kClients) {
    if (NowNs() > deadline) {
      for (uint32_t i = 0; i < kClients; i++) {
        const uint64_t since = b.logs[i].op_start_ns.load();
        if (since == 0) continue;
        Note("client " + std::to_string(i) + " stalled in a " +
             kKindNames[b.logs[i].op_kind.load()] + " op for " +
             std::to_string((NowNs() - since) / 1'000'000'000ULL) + " s");
      }
      std::fflush(stderr);
      std::_Exit(3);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

Window RunWindow(Bench& b, const std::function<void(Client&)>& body) {
  Window w;
  b.stop.store(false);
  b.traced.store(false);
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<Client>> clients;
  for (uint32_t i = 0; i < kClients; i++) {
    clients.push_back(std::make_unique<Client>(&b, i));
  }
  const uint64_t start = NowNs();
  b.window_start_ns = start;
  const uint64_t end = start + static_cast<uint64_t>(b.args.seconds * 1e9);
  std::atomic<uint32_t> finished{0};
  for (auto& c : clients) {
    threads.emplace_back([&body, &finished, client = c.get()] {
      body(*client);
      finished.fetch_add(1);
    });
  }
  uint64_t phase_start = start;
  bool traced = false;
  for (;;) {
    const uint64_t now = NowNs();
    if (now >= end) break;
    const uint64_t next = b.args.trace ? std::min(phase_start + kPhaseNs, end)
                                       : end;
    std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
    const uint64_t at = NowNs();
    if (at < next) continue;
    w.seconds[traced ? 1 : 0] += (at - phase_start) / 1e9;
    phase_start = at;
    if (b.args.trace) {
      traced = !traced;
      b.traced.store(traced, std::memory_order_relaxed);
    }
  }
  b.stop.store(true);
  AwaitClients(b, finished);
  for (auto& t : threads) t.join();
  b.traced.store(false);
  return w;
}

// ---------------------------------------------------------------------------
// End-of-run checks.

// The values `key` may hold after every write in `writes` (all to the same
// key and version): the latest-invoked write, plus every write that had
// not returned when it was invoked. Empty when nothing was written.
std::vector<uint64_t> Candidates(const std::vector<const WriteRec*>& writes) {
  uint64_t latest_start = 0;
  for (const WriteRec* w : writes) latest_start = std::max(latest_start, w->start_ns);
  std::vector<uint64_t> out;
  for (const WriteRec* w : writes) {
    if (w->end_ns >= latest_start) out.push_back(w->value);
  }
  return out;
}

using WriteIndex = std::map<std::pair<uint64_t, uint64_t>,  // (branch, key)
                            std::vector<const WriteRec*>>;

WriteIndex IndexWrites(const Bench& b) {
  WriteIndex idx;
  for (const ClientLog& log : b.logs) {
    for (const WriteRec& w : log.writes) idx[{w.branch, w.key}].push_back(&w);
  }
  return idx;
}

// Reads `key` through `view` and checks it against the writes recorded for
// (branch, key); unwritten keys must still hold their preloaded value.
void CheckLastAcked(Bench& b, View& view, uint64_t branch, uint64_t key,
                    const WriteIndex& idx) {
  b.checks++;
  std::string v;
  Status st = view.Get(EncodeUserKey(key), &v);
  if (!st.ok()) {
    b.CheckFail("read of key " + std::to_string(key) + ": " + st.ToString());
    return;
  }
  const uint64_t got = DecodeValue(v);
  auto it = idx.find({branch, key});
  std::vector<uint64_t> ok_values =
      it == idx.end() ? std::vector<uint64_t>{key} : Candidates(it->second);
  if (std::find(ok_values.begin(), ok_values.end(), got) == ok_values.end()) {
    b.CheckFail("key " + std::to_string(key) + " reads " + std::to_string(got) +
                ", not its last acked value");
  }
}

// oltp-point: a deterministic sample of written and unwritten keys.
void CheckOltp(Bench& b, const WriteIndex& idx) {
  TipView tip = b.cluster->proxy(0).Tip(b.tree);
  Rng rng(b.args.seed ^ 0xC0FFEE);
  uint64_t n = 0;
  for (const auto& [bk, writes] : idx) {
    if (n++ % 4 == 0) CheckLastAcked(b, tip, kLinearTip, bk.second, idx);
  }
  for (int i = 0; i < 1000; i++) {
    CheckLastAcked(b, tip, kLinearTip, rng.Uniform(b.records), idx);
  }
}

// write-sync: every record (hence every acked write) after crash-all.
void CheckAllRecords(Bench& b, const WriteIndex& idx) {
  TipView tip = b.cluster->proxy(0).Tip(b.tree);
  for (uint64_t k = 0; k < b.records; k++) {
    CheckLastAcked(b, tip, kLinearTip, k, idx);
  }
}

// whatif-branch: side-branch writes read back on their branch and are
// invisible on the mainline and on the sibling created by the same fork.
void CheckWhatif(Bench& b, const WriteIndex& idx, Tips& tips) {
  Proxy& p = b.cluster->proxy(0);
  std::unordered_map<uint64_t, uint64_t> sibling;  // side sid -> mainline
  for (const auto& [m, s] : tips.forks) sibling[s] = m;
  auto final_main = p.Branch(b.tree, tips.mainline);
  CheckOk(final_main.status(), "final mainline view");
  // Mainline writes move with the mainline: they form one register.
  WriteIndex main_idx;
  for (const auto& [bk, writes] : idx) {
    if (sibling.count(bk.first) == 0) {
      auto& dst = main_idx[{kLinearTip, bk.second}];
      dst.insert(dst.end(), writes.begin(), writes.end());
    }
  }
  auto read = [&](uint64_t sid, uint64_t key, uint64_t* out) {
    auto view = p.Branch(b.tree, sid);
    std::string v;
    Status st = view.ok() ? view->Get(EncodeUserKey(key), &v) : view.status();
    if (!st.ok()) {
      b.CheckFail("branch " + std::to_string(sid) + " key " +
                  std::to_string(key) + ": " + st.ToString());
      return false;
    }
    *out = DecodeValue(v);
    return true;
  };
  uint64_t n = 0;
  for (const auto& [bk, writes] : idx) {
    const uint64_t sid = bk.first, key = bk.second;
    auto sib = sibling.find(sid);
    if (sib == sibling.end() || n++ % 4 != 0) continue;
    std::vector<uint64_t> own = Candidates(writes);
    uint64_t got = 0;
    b.checks++;
    if (read(sid, key, &got) &&
        std::find(own.begin(), own.end(), got) == own.end()) {
      b.CheckFail("side branch " + std::to_string(sid) + " lost its write");
    }
    for (uint64_t other : {sib->second, tips.mainline}) {
      b.checks++;
      if (!read(other, key, &got)) continue;
      for (const WriteRec* w : writes) {
        if (w->value == got) {
          b.CheckFail("side branch " + std::to_string(sid) +
                      " write visible on branch " + std::to_string(other));
        }
      }
      if (ValueClient(got) >= 2) {
        b.CheckFail("mainline " + std::to_string(other) +
                    " shows a side-branch value");
      }
    }
  }
  for (const auto& [bk, writes] : main_idx) {
    if (n++ % 4 == 0) {
      CheckLastAcked(b, *final_main, kLinearTip, bk.second, main_idx);
    }
  }
}

// ---------------------------------------------------------------------------
// Recovery: crash to the first successful read. write-sync crashes every
// memnode and recovers from checkpoints + WAL (after a fixed tail of acked
// writes following a checkpoint); the RAM-only workloads crash one memnode
// and recover it from its replica.

struct RecoveryResult {
  std::vector<double> seconds;
  uint64_t replayed = 0;
};

uint64_t StoreReplayed(Cluster& c) {
  uint64_t total = 0;
  for (uint32_t i = 0; i < c.n_memnodes(); i++) {
    if (auto* ds = c.durable_store(i)) total += ds->metrics().replayed.Value();
  }
  return total;
}

RecoveryResult RunRecovery(Bench& b, const WorkloadDef& w, uint64_t read_sid) {
  RecoveryResult r;
  Cluster& c = *b.cluster;
  const bool durable = w.durability == wal::DurabilityMode::kSync;
  const uint64_t replayed0 = StoreReplayed(c);
  Rng rng(b.args.seed ^ 0xBADC0DE);
  ClientLog& tail = b.logs[0];
  auto read_one = [&]() -> Status {
    std::string v;
    if (!w.branching) return c.proxy(0).Tip(b.tree).Get(EncodeUserKey(0), &v);
    auto view = c.proxy(0).Branch(b.tree, read_sid);
    return view.ok() ? view->Get(EncodeUserKey(0), &v) : view.status();
  };
  const int rounds = durable ? kCrashAllRounds : kCrashOneRounds;
  for (int round = 0; round < rounds; round++) {
    if (durable) {
      const uint64_t t0 = NowNs();
      CheckOk(c.CheckpointAll(), "checkpoint before tail");
      b.timed.checkpoint_ms.push_back((NowNs() - t0) / 1e6);
      TipView tip = c.proxy(0).Tip(b.tree);
      for (uint64_t i = 0; i < kRecoveryTail; i++) {
        const uint64_t k = rng.Uniform(b.records);
        const uint64_t value = ClientValue(0, tail.seq++);
        const uint64_t w0 = NowNs();
        CheckOk(tip.Put(EncodeUserKey(k), EncodeValue(value)), "tail write");
        tail.writes.push_back({k, value, kLinearTip, w0, NowNs()});
      }
    }
    const uint32_t victim = static_cast<uint32_t>(round) % c.n_memnodes();
    const uint64_t t0 = NowNs();
    if (durable) {
      c.CrashAllMemnodes();
      c.RecoverAllMemnodes();
    } else {
      c.CrashMemnode(victim);
      c.RecoverMemnode(victim);
    }
    Status st;
    for (int attempt = 0; attempt < 1000; attempt++) {
      st = read_one();
      if (st.ok()) break;
    }
    CheckOk(st, "first read after recovery");
    r.seconds.push_back((NowNs() - t0) / 1e9);
  }
  r.replayed = StoreReplayed(c) - replayed0;
  return r;
}

// ---------------------------------------------------------------------------
// Probes: one layer's public entry point timed in isolation, with the
// input shape the traced ops showed.

struct Shape {
  int items_per_round = 1;      // mean items of a 1-phase round
  uint64_t bytes_per_round = 0; // mean bytes a round locks (stripes x 64)
  uint64_t append_bytes = 0;    // mean framed bytes per WAL append
};

Shape TracedShape(const Bench& b, double stripes_per_execution,
                  uint64_t wal_bytes, uint64_t wal_appends) {
  uint64_t items = 0, rounds = 0;
  for (const ClientLog& log : b.logs) {
    for (const SpanRec& s : log.spans) {
      if (s.round && std::strcmp(s.label, "1pc") == 0) {
        items += s.items;
        rounds++;
      }
    }
  }
  Shape shape;
  if (rounds > 0) {
    shape.items_per_round =
        std::max<int>(1, static_cast<int>((items + rounds / 2) / rounds));
  }
  const uint32_t granularity = sinfonia::Memnode::Options().lock_granularity;
  shape.bytes_per_round = std::max<uint64_t>(
      granularity, static_cast<uint64_t>(stripes_per_execution + 0.5) *
                       granularity);
  shape.append_bytes = wal_appends > 0 ? wal_bytes / wal_appends : 0;
  return shape;
}

// Median of `batches` timings of `per_batch` calls, in ns per call.
template <typename Fn>
double MedianNsPerCall(int batches, int per_batch, Fn&& fn) {
  std::vector<double> per_call;
  for (int i = 0; i < batches; i++) {
    const uint64_t t0 = NowNs();
    for (int j = 0; j < per_batch; j++) fn();
    per_call.push_back(static_cast<double>(NowNs() - t0) / per_batch);
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

// A round's ranges as the traced ops showed them: one range carrying the
// bulk of the locked bytes (the node read or written) plus one 8-byte range
// per further item (the seqnum compares), on distinct stripes.
std::vector<sinfonia::LockTable::Range> ProbeRanges(const Shape& shape) {
  const uint64_t small = 8;
  const uint64_t n_small = static_cast<uint64_t>(shape.items_per_round - 1);
  const uint64_t granularity = sinfonia::Memnode::Options().lock_granularity;
  const uint64_t bulk =
      std::max<uint64_t>(small, shape.bytes_per_round -
                                    std::min(shape.bytes_per_round,
                                             n_small * granularity));
  std::vector<sinfonia::LockTable::Range> ranges{{0, bulk}};
  for (uint64_t i = 0; i < n_small; i++) {
    ranges.push_back({(1 << 20) + i * 4096, small});
  }
  return ranges;
}

double ProbeLockUnlockNs(const Shape& shape) {
  sinfonia::LockTable locks;
  const auto ranges = ProbeRanges(shape);
  sinfonia::TxId tx = 1;
  return MedianNsPerCall(9, 4000, [&] {
    if (!locks.Lock(tx, ranges).ok()) Die("lock probe: lock failed");
    locks.Unlock(tx);
    tx++;
  });
}

// A 1-phase execution of the same shape: the bulk range is read, the small
// ones are compared (against the zero-filled space they hold).
double ProbeMemnodeExecuteNs(const Shape& shape) {
  sinfonia::Memnode mn(0);
  std::vector<sinfonia::MiniTxn::CompareItem> compares;
  std::vector<sinfonia::MiniTxn::ReadItem> reads;
  for (const auto& r : ProbeRanges(shape)) {
    if (reads.empty()) {
      reads.push_back({sinfonia::Addr{0, r.offset},
                       static_cast<uint32_t>(r.len)});
    } else {
      compares.push_back({sinfonia::Addr{0, r.offset}, std::string(r.len, '\0')});
    }
  }
  sinfonia::MiniResult res;
  sinfonia::TxId tx = 1;
  return MedianNsPerCall(9, 4000, [&] {
    if (!mn.ExecuteLocal(tx, compares, reads, {}, false, &res, true).ok() ||
        !res.committed) {
      Die("memnode probe: execute failed");
    }
    mn.Release(tx);
    tx++;
  });
}

double ProbeWalAppendSyncUs(uint64_t append_bytes, const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  std::vector<double> us;
  {
    wal::Wal log(dir);
    CheckOk(log.Open(), "wal probe open");
    const uint64_t payload =
        append_bytes > 64 ? append_bytes - 32 : 4096;  // minus framing
    std::vector<wal::WalWrite> writes{{0, std::string(payload, 'w')}};
    for (int i = 0; i < 200; i++) {
      const uint64_t t0 = NowNs();
      auto lsn = log.Append(writes);
      CheckOk(lsn.status(), "wal probe append");
      CheckOk(log.Sync(*lsn), "wal probe sync");
      us.push_back((NowNs() - t0) / 1e3);
    }
    log.Close();
  }
  fs::remove_all(dir, ec);
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

// ---------------------------------------------------------------------------
// Output.

class Json {
 public:
  void Key(const std::string& k) {
    Sep();
    out_ += '"' + k + "\":";
    fresh_ = true;
  }
  void Num(double v) {
    Sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }
  void Str(const std::string& s) {
    Sep();
    out_ += '"';
    for (char ch : s) {
      if (ch == '"' || ch == '\\') out_ += '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) out_ += ch;
    }
    out_ += '"';
  }
  void Open(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
  }
  void Close(char c) {
    out_ += c;
    fresh_ = false;
  }
  void NumList(const std::vector<double>& v) {
    Open('[');
    for (double x : v) Num(x);
    Close(']');
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary);
  f.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!f) Die("cannot write " + path);
}

void WriteLatencies(const Bench& b, const std::string& dir) {
  for (int k = 0; k < kNumKinds; k++) {
    std::vector<uint64_t> all;
    for (const ClientLog& log : b.logs) {
      all.insert(all.end(), log.lat[k].begin(), log.lat[k].end());
    }
    std::ofstream f(dir + "/lat_" + kKindNames[k] + ".bin", std::ios::binary);
    f.write(reinterpret_cast<const char*>(all.data()),
            static_cast<std::streamsize>(all.size() * sizeof(uint64_t)));
    if (!f) Die("cannot write latencies");
  }
}

// One line per traced op:
//   <id> <kind> <start_ns> <wall_ns> <cpu_ns> <msgs> <round_trips> <spans...>
// with round spans as r:<label>:<participants>:<items>:<wall_ns> and attempt
// spans as a:<abort reason>.
void WriteSpans(const Bench& b, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  for (const ClientLog& log : b.logs) {
    for (const OpRec& op : log.ops) {
      std::fprintf(f, "%llu %s %llu %llu %llu %llu %llu",
                   static_cast<unsigned long long>(op.id), kKindNames[op.kind],
                   static_cast<unsigned long long>(op.start_ns),
                   static_cast<unsigned long long>(op.wall_ns),
                   static_cast<unsigned long long>(op.cpu_ns),
                   static_cast<unsigned long long>(op.msgs),
                   static_cast<unsigned long long>(op.round_trips));
      for (uint32_t i = 0; i < op.n_spans; i++) {
        const SpanRec& s = log.spans[op.first_span + i];
        if (s.round) {
          std::fprintf(f, " r:%s:%d:%d:%llu", s.label, s.participants,
                       s.items, static_cast<unsigned long long>(s.wall_ns));
        } else {
          std::fprintf(f, " a:%s", AbortReasonName(s.reason));
        }
      }
      std::fputc('\n', f);
    }
  }
  if (std::fclose(f) != 0) Die("cannot write " + path);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (a.out.empty() || !(a.seconds > 0)) {
    Die("usage: --workload NAME --seed N --seconds S --trace 0|1 --out DIR");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Bench b;
  b.args = ParseArgs(argc, argv);
  const WorkloadDef* w = FindWorkload(b.args.workload);
  if (w == nullptr) Die("unknown workload " + b.args.workload);
  const std::string out = b.args.out;
  fs::create_directories(out);
  b.data_root = out + "/data";
  b.records = w->records;

  // Set-up, several times; the last cluster runs the window.
  Tips tips;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; i++) {
    setup_s.push_back(SetupOnce(b, *w, &tips));
    Note("set-up " + std::to_string(i) + ": " + std::to_string(setup_s.back()) + " s");
  }
  Cluster& cluster = *b.cluster;

  const std::string stats_before = cluster.DumpStatsJson();
  uint64_t wal_bytes0 = 0, wal_appends0 = 0;
  auto wal_totals = [&](uint64_t* bytes, uint64_t* appends) {
    *bytes = *appends = 0;
    for (uint32_t i = 0; i < cluster.n_memnodes(); i++) {
      if (auto* ds = cluster.durable_store(i)) {
        *bytes += ds->wal().metrics().append_bytes.Value();
        *appends += ds->wal().metrics().appends.Value();
      }
    }
  };
  wal_totals(&wal_bytes0, &wal_appends0);
  auto lock_acquires = [&cluster] {
    uint64_t total = 0;
    for (uint32_t i = 0; i < cluster.n_memnodes(); i++) {
      total += cluster.coordinator()->memnode(i)->lock_table().TotalStats().acquires;
    }
    return total;
  };
  auto executions = [&cluster] {
    return cluster.coordinator()->metrics().executions.Value();
  };
  const uint64_t lock_acquires0 = lock_acquires(), executions0 = executions();

  ScrambledZipfianGenerator zipf(b.records);
  std::function<void(Client&)> body;
  const std::string name = w->name;
  if (name == "oltp-point") {
    body = [&](Client& c) { OltpPointClient(b, c, zipf); };
  } else if (name == "write-sync") {
    body = [&](Client& c) { WriteSyncClient(b, c); };
  } else if (name == "htap-scan") {
    body = [&](Client& c) {
      if (c.id() == kClients - 1) {
        HtapScanner(b, c);
      } else {
        HtapWriter(b, c);
      }
    };
  } else {
    body = [&](Client& c) { WhatifClient(b, c, tips); };
  }
  const Window window = RunWindow(b, body);
  Note("window done");
  const std::string stats_after = cluster.DumpStatsJson();
  uint64_t wal_bytes1 = 0, wal_appends1 = 0;
  wal_totals(&wal_bytes1, &wal_appends1);
  const uint64_t lock_acquires1 = lock_acquires(), executions1 = executions();

  // Space at the end of the window: live node bytes per byte of live user
  // key+value (one version's records).
  double live_node_bytes = 0;
  for (uint32_t m = 0; m < cluster.n_memnodes(); m++) {
    auto live = cluster.allocator()->MetaLiveSlabs(m);
    CheckOk(live.status(), "live slabs");
    live_node_bytes += static_cast<double>(*live) * cluster.options().node_size;
  }
  const double user_bytes = static_cast<double>(b.records) * kRecordBytes;
  // User key+value bytes the window's writes carried (wal.bytes_per_user_byte).
  uint64_t window_writes = 0;
  for (const ClientLog& log : b.logs) window_writes += log.writes.size();

  const RecoveryResult recovery = RunRecovery(b, *w, tips.mainline);
  Note("recovery done");
  const WriteIndex idx = IndexWrites(b);
  if (name == "oltp-point") {
    CheckOltp(b, idx);
  } else if (name == "write-sync") {
    CheckAllRecords(b, idx);
  } else if (name == "whatif-branch") {
    CheckWhatif(b, idx, tips);
  }

  Note("checks done");
  double lock_ns = 0, memnode_ns = 0, wal_us = 0;
  Shape shape;
  if (b.args.trace) {
    const double stripes_per_execution =
        static_cast<double>(lock_acquires1 - lock_acquires0) /
        std::max<uint64_t>(1, executions1 - executions0);
    shape = TracedShape(b, stripes_per_execution, wal_bytes1 - wal_bytes0,
                        wal_appends1 - wal_appends0);
    lock_ns = ProbeLockUnlockNs(shape);
    memnode_ns = ProbeMemnodeExecuteNs(shape);
    // Without a WAL in the workload, time a one-node append.
    wal_us = ProbeWalAppendSyncUs(
        shape.append_bytes > 0 ? shape.append_bytes
                               : cluster.options().node_size + 64,
        out + "/wal_probe");
  }

  WriteFile(out + "/stats_before.json", stats_before);
  WriteFile(out + "/stats_after.json", stats_after);
  WriteLatencies(b, out);
  if (b.args.trace) WriteSpans(b, out + "/spans.txt");

  uint64_t attempted = 0, failed = 0, completed[2] = {0, 0}, scan_keys[2] = {0, 0};
  std::string first_error;
  for (const ClientLog& log : b.logs) {
    attempted += log.attempted;
    failed += log.failed;
    for (int m = 0; m < 2; m++) {
      completed[m] += log.completed[m];
      scan_keys[m] += log.scan_keys[m];
    }
    if (first_error.empty()) first_error = log.first_error;
  }

  Json j;
  j.Open('{');
  j.Key("workload"); j.Str(name);
  j.Key("seed"); j.Num(static_cast<double>(b.args.seed));
  j.Key("trace"); j.Num(b.args.trace ? 1 : 0);
  j.Key("clients"); j.Num(kClients);
  j.Key("memnodes"); j.Num(kMachines);
  j.Key("records"); j.Num(static_cast<double>(b.records));
  j.Key("setup_s"); j.NumList(setup_s);
  j.Key("window_s"); j.NumList({window.seconds[0], window.seconds[1]});
  j.Key("completed"); j.NumList({double(completed[0]), double(completed[1])});
  j.Key("scan_keys"); j.NumList({double(scan_keys[0]), double(scan_keys[1])});
  j.Key("attempted"); j.Num(static_cast<double>(attempted + b.checks));
  j.Key("op_failures"); j.Num(static_cast<double>(failed));
  j.Key("checks"); j.Num(static_cast<double>(b.checks));
  j.Key("check_failures"); j.Num(static_cast<double>(b.check_failures));
  j.Key("errors");
  j.Open('[');
  if (!first_error.empty()) j.Str(first_error);
  for (const std::string& e : b.check_errors) j.Str(e);
  j.Close(']');
  j.Key("live_node_bytes"); j.Num(live_node_bytes);
  j.Key("user_bytes"); j.Num(user_bytes);
  j.Key("recovery_s"); j.NumList(recovery.seconds);
  j.Key("recovery_replayed"); j.Num(static_cast<double>(recovery.replayed));
  j.Key("recovery_crash"); j.Str(w->durability == wal::DurabilityMode::kSync
                                     ? "all-memnodes" : "one-memnode");
  j.Key("branches"); j.Num(static_cast<double>(tips.forks.size()));
  j.Key("timed");
  j.Open('{');
  j.Key("checkpoint_ms"); j.NumList(b.timed.checkpoint_ms);
  j.Key("snapshot_create_us"); j.NumList(b.timed.snapshot_create_us);
  j.Key("gc_ms"); j.NumList(b.timed.gc_ms);
  j.Key("gc_freed"); j.NumList(b.timed.gc_freed);
  j.Key("create_branch_ms"); j.NumList(b.timed.create_branch_ms);
  j.Close('}');
  j.Key("probes");
  j.Open('{');
  j.Key("items_per_round"); j.Num(shape.items_per_round);
  j.Key("bytes_per_round"); j.Num(static_cast<double>(shape.bytes_per_round));
  j.Key("append_bytes"); j.Num(static_cast<double>(shape.append_bytes));
  j.Key("lock_unlock_ns"); j.Num(lock_ns);
  j.Key("memnode_execute_ns"); j.Num(memnode_ns);
  j.Key("wal_append_sync_us"); j.Num(wal_us);
  j.Close('}');
  j.Key("writes"); j.Num(static_cast<double>(window_writes));
  j.Key("user_write_bytes");
  j.Num(static_cast<double>(window_writes) * kRecordBytes);
  j.Close('}');
  WriteFile(out + "/raw.json", j.str());

  b.cluster.reset();
  std::error_code ec;
  fs::remove_all(b.data_root, ec);
  return 0;
}
