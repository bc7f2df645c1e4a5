// Sharded serving engine suite (DESIGN.md "Sharded serving").
//
// The load-bearing guarantee: `shard_threads` is execution-only. For any
// shard count, running the same configuration with 1, 2, or 8 worker
// threads must produce bit-identical RunResult serializations, decision
// traces, and metrics JSON — the serving shards share no mutable state, and
// every cross-shard fold happens in fixed shard order. These tests
// byte-compare all three artifacts on a skewed (Zipf) trace and a
// delete-heavy trace for both engines.
//
// Also here: regression tests for the two coalescer lifetime bugs fixed
// alongside the sharding work (a mid-flight eviction leaving a stale
// in-flight entry, and the event engine's deferred admission resurrecting a
// deleted object), and FNV-1a pins of every approach's artifacts under both
// engines that must not move when the runtime or the analyzer is refactored.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/decision_trace.h"
#include "src/obs/metrics.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/sim/report_io.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

EngineConfig Config(Approach a) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  cfg.num_minicaches = 12;
  if (a == Approach::kStaticTtl) {
    cfg.static_ttl = 12 * kHour;
  }
  if (a == Approach::kStaticCapacity) {
    cfg.static_capacity_bytes = 20ull * 1000 * 1000;
  }
  return cfg;
}

Trace ZipfTrace() {
  WorkloadProfile p;
  p.name = "sharded-zipf";
  p.seed = 81;
  p.duration = 2 * kDay;
  p.dataset_bytes = 60ull * 1000 * 1000;
  p.mean_object_bytes = 500ull * 1000;
  p.get_bytes = 400ull * 1000 * 1000;
  p.put_bytes = 40ull * 1000 * 1000;
  p.zipf_alpha = 0.9;
  return SplitObjects(GenerateTrace(p), p.max_object_bytes);
}

Trace DeleteHeavyTrace() {
  WorkloadProfile p;
  p.name = "sharded-deletes";
  p.seed = 82;
  p.duration = 2 * kDay;
  p.dataset_bytes = 60ull * 1000 * 1000;
  p.mean_object_bytes = 500ull * 1000;
  p.get_bytes = 300ull * 1000 * 1000;
  p.put_bytes = 60ull * 1000 * 1000;
  p.delete_fraction = 0.15;
  p.zipf_alpha = 0.7;
  return SplitObjects(GenerateTrace(p), p.max_object_bytes);
}

// Every observable artifact of a run, byte-exact.
struct Artifacts {
  std::string result;
  std::string decisions;
  std::string metrics;

  bool operator==(const Artifacts& o) const {
    return result == o.result && decisions == o.decisions && metrics == o.metrics;
  }
};

template <typename Engine>
Artifacts RunWith(EngineConfig cfg, const Trace& t, int shards, int threads) {
  cfg.num_shards = shards;
  cfg.shard_threads = threads;
  obs::DecisionTrace decisions;
  obs::MetricsRegistry metrics;
  cfg.decision_trace = &decisions;
  cfg.metrics = &metrics;
  const RunResult r = Engine(cfg).Run(t);
  return {SerializeRunResult(r), DecisionTraceJsonl(decisions), metrics.Json()};
}

template <typename Engine>
void ExpectThreadCountInvariant(const EngineConfig& cfg, const Trace& t, int shards,
                                const char* label) {
  const Artifacts one = RunWith<Engine>(cfg, t, shards, 1);
  for (int threads : {2, 8}) {
    const Artifacts many = RunWith<Engine>(cfg, t, shards, threads);
    EXPECT_EQ(many.result, one.result)
        << label << ": RunResult drifted at shard_threads=" << threads;
    EXPECT_EQ(many.decisions, one.decisions)
        << label << ": decision trace drifted at shard_threads=" << threads;
    EXPECT_EQ(many.metrics, one.metrics)
        << label << ": metrics drifted at shard_threads=" << threads;
  }
}

TEST(ShardedReplayEngineTest, ThreadCountNeverChangesAnyOutputBit) {
  const Trace zipf = ZipfTrace();
  const Trace deletes = DeleteHeavyTrace();
  for (Approach a : {Approach::kMacaron, Approach::kMacaronNoCluster,
                     Approach::kMacaronTtl, Approach::kEcpc, Approach::kReplicated}) {
    const EngineConfig cfg = Config(a);
    ExpectThreadCountInvariant<ReplayEngine>(cfg, zipf, 8, ApproachName(a));
    ExpectThreadCountInvariant<ReplayEngine>(cfg, deletes, 8, ApproachName(a));
  }
}

TEST(ShardedEventEngineTest, ThreadCountNeverChangesAnyOutputBit) {
  const Trace zipf = ZipfTrace();
  const Trace deletes = DeleteHeavyTrace();
  for (Approach a :
       {Approach::kMacaron, Approach::kMacaronNoCluster, Approach::kMacaronTtl}) {
    const EngineConfig cfg = Config(a);
    ExpectThreadCountInvariant<EventEngine>(cfg, zipf, 8, ApproachName(a));
    ExpectThreadCountInvariant<EventEngine>(cfg, deletes, 8, ApproachName(a));
  }
}

TEST(ShardedReplayEngineTest, SingleShardIsThreadInvariantToo) {
  // shard_threads > num_shards is clamped; the default single-shard engine
  // must be untouched by any thread setting.
  const Trace t = ZipfTrace();
  const EngineConfig cfg = Config(Approach::kMacaron);
  ExpectThreadCountInvariant<ReplayEngine>(cfg, t, 1, "macaron+cc S=1");
  ExpectThreadCountInvariant<EventEngine>(cfg, t, 1, "macaron+cc-proto S=1");
}

TEST(ShardedReplayEngineTest, ShardCountIsStructural) {
  // num_shards genuinely changes the simulated deployment (routing, split
  // capacities, per-shard RNG streams) — it is fingerprinted, and its
  // outputs are expected to differ from the unsharded run.
  const Trace t = ZipfTrace();
  const EngineConfig cfg = Config(Approach::kMacaron);
  const Artifacts one = RunWith<ReplayEngine>(cfg, t, 1, 1);
  const Artifacts eight = RunWith<ReplayEngine>(cfg, t, 8, 1);
  EXPECT_NE(eight.result, one.result);
}

TEST(ShardedReplayEngineTest, HitCountersStillPartitionGets) {
  const Trace t = DeleteHeavyTrace();
  const TraceStats s = ComputeStats(t);
  for (Approach a : {Approach::kMacaron, Approach::kMacaronNoCluster}) {
    EngineConfig cfg = Config(a);
    cfg.num_shards = 8;
    cfg.shard_threads = 8;
    const RunResult r = ReplayEngine(cfg).Run(t);
    EXPECT_EQ(r.gets, s.num_gets) << r.approach_name;
    EXPECT_EQ(r.cluster_hits + r.osc_hits + r.remote_fetches + r.delayed_hits, r.gets)
        << r.approach_name;
  }
}

// --- Coalescer lifetime regressions ---

TEST(InflightLifetimeTest, MidFlightEvictionInvalidatesCoalescing) {
  // GET at t=995 starts a remote fetch (hundreds of ms) and admits the
  // object; the t=1000 boundary evicts it (static capacity below the object
  // size). The re-GET at t=1010 lands inside the original fetch window, but
  // the object is gone: it must be a fresh remote fetch, not a delayed hit
  // that coalesces onto the evicted fill and serves nothing.
  EngineConfig cfg = Config(Approach::kStaticCapacity);
  cfg.static_capacity_bytes = 1000;  // below the object size: always evicts
  cfg.window = 1000;
  cfg.observation = 0;
  Trace t;
  t.name = "evict-mid-flight";
  t.requests = {{995, 1, 1'000'000, Op::kGet}, {1010, 1, 1'000'000, Op::kGet}};
  const RunResult r = ReplayEngine(cfg).Run(t);
  EXPECT_EQ(r.remote_fetches, 2u) << "second GET must re-fetch the evicted object";
  EXPECT_EQ(r.delayed_hits, 0u) << "must not coalesce onto a discarded fill";
}

TEST(InflightLifetimeTest, EventEngineDeleteCancelsPendingAdmission) {
  // GET at t=0 schedules a deferred admission at fetch completion; the
  // DELETE at t=10 arrives first. The admission must be cancelled — an hour
  // later the object must not have resurrected, so the next GET re-fetches.
  EngineConfig cfg = Config(Approach::kMacaronNoCluster);
  Trace t;
  t.name = "delete-mid-flight";
  t.requests = {{0, 1, 1'000'000, Op::kGet},
                {10, 1, 1'000'000, Op::kDelete},
                {kHour, 1, 1'000'000, Op::kGet}};
  const RunResult r = EventEngine(cfg).Run(t);
  EXPECT_EQ(r.remote_fetches, 2u) << "deleted object must be re-fetched";
  EXPECT_EQ(r.osc_hits, 0u) << "cancelled admission must not resurrect the object";
}

TEST(InflightLifetimeTest, EventEngineUndisturbedFillStillAdmits) {
  // Control for the ticket mechanics: with no delete, the deferred
  // admission must still land (the ticket is claimable exactly once).
  EngineConfig cfg = Config(Approach::kMacaronNoCluster);
  Trace t;
  t.name = "fill-lands";
  t.requests = {{0, 1, 1'000'000, Op::kGet}, {kHour, 1, 1'000'000, Op::kGet}};
  const RunResult r = EventEngine(cfg).Run(t);
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 1u);
}

// --- Byte pins ---

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct BytePin {
  int shards;
  uint64_t result_fnv;
  uint64_t decisions_fnv;
};

template <typename Engine>
void ExpectBytePins(const char* engine, Approach approach, const BytePin (&pins)[2]) {
  // The RunResult and decision trace of `approach` must stay these exact
  // bytes at any shard and thread count: a refactor of the runtime or the
  // analyzer that moves them is a behaviour change. Threads size both the
  // shard workers and the analyzer fan-out, so a single-shard run still
  // exercises the pool.
  const Trace t = DeleteHeavyTrace();
  for (const BytePin& pin : pins) {
    for (int threads : {1, 2}) {
      EngineConfig cfg = Config(approach);
      cfg.analyzer_threads = threads;
      const Artifacts a = RunWith<Engine>(cfg, t, pin.shards, threads);
      const uint64_t result_fnv = Fnv1a64(a.result);
      const uint64_t decisions_fnv = Fnv1a64(a.decisions);
      EXPECT_EQ(result_fnv, pin.result_fnv)
          << std::hex << engine << " " << ApproachName(approach) << " shards=" << pin.shards
          << " threads=" << threads << " result=0x" << result_fnv;
      EXPECT_EQ(decisions_fnv, pin.decisions_fnv)
          << std::hex << engine << " " << ApproachName(approach) << " shards=" << pin.shards
          << " threads=" << threads << " decisions=0x" << decisions_fnv;
    }
  }
}

TEST(MacaronTtlBytesTest, ReplayEngineMatchesPinnedBytes) {
  // FNV-1a-64 of the serialized RunResult and decision-trace JSONL. A
  // TTL-only analyzer replays, and bills serverless time for, only the TTL
  // bank (DESIGN.md "Analyzer pipeline").
  ExpectBytePins<ReplayEngine>("replay", Approach::kMacaronTtl,
                               {{1, 0xa8f30fd7a3c7cc55ull, 0xc45d2843d2be6818ull},
                                {4, 0xa7a6dbc91c4af1caull, 0x47321ff6ae61946full}});
}

TEST(MacaronTtlBytesTest, EventEngineMatchesPinnedBytes) {
  ExpectBytePins<EventEngine>("event", Approach::kMacaronTtl,
                              {{1, 0x043b2ee406f54455ull, 0xf1f1389a909d3960ull},
                               {4, 0xe6bce5fe701312d3ull, 0x9e274ea34638efdeull}});
}

TEST(EngineBytesTest, ReplayEngineMatchesPinnedBytes) {
  ExpectBytePins<ReplayEngine>("replay", Approach::kRemote,
                               {{1, 0x8fcf694c9be1bb4full, 0xcbf29ce484222325ull},
                                {4, 0x7efb1819b7ce2193ull, 0xcbf29ce484222325ull}});
  ExpectBytePins<ReplayEngine>("replay", Approach::kReplicated,
                               {{1, 0xebb5a84539bd6b18ull, 0xcbf29ce484222325ull},
                                {4, 0x7918499c60ff0d10ull, 0xcbf29ce484222325ull}});
  ExpectBytePins<ReplayEngine>("replay", Approach::kEcpc,
                               {{1, 0x510e5d56d05e7d93ull, 0x7d8650038470b086ull},
                                {4, 0xfb30493bf4ca8716ull, 0x0786faae1d6a42b1ull}});
  ExpectBytePins<ReplayEngine>("replay", Approach::kFlashEcpc,
                               {{1, 0x965c91fe71ed86c6ull, 0x7ff6415251a24dd5ull},
                                {4, 0x491a7418532de285ull, 0xa8e733a09a87cd20ull}});
  ExpectBytePins<ReplayEngine>("replay", Approach::kMacaron,
                               {{1, 0xaa46d23954d994fcull, 0x99a4f42a6516b714ull},
                                {4, 0x95b615b6322b647aull, 0x7f4eccca06698760ull}});
  ExpectBytePins<ReplayEngine>("replay", Approach::kMacaronNoCluster,
                               {{1, 0xb546cbe18d5f5350ull, 0xd09cba355c4c6729ull},
                                {4, 0x86b8438caa74f425ull, 0x40a7a021e7316c3bull}});
  ExpectBytePins<ReplayEngine>("replay", Approach::kStaticCapacity,
                               {{1, 0x2ab89fed3ea30c29ull, 0xcbf29ce484222325ull},
                                {4, 0xf4c95ab5753ace56ull, 0xcbf29ce484222325ull}});
  ExpectBytePins<ReplayEngine>("replay", Approach::kStaticTtl,
                               {{1, 0xd84e369047f482d3ull, 0xcbf29ce484222325ull},
                                {4, 0x4802e487212e9ed8ull, 0xcbf29ce484222325ull}});
}

TEST(EngineBytesTest, EventEngineMatchesPinnedBytes) {
  ExpectBytePins<EventEngine>("event", Approach::kMacaron,
                              {{1, 0x932592a529315608ull, 0x79439ae1ec4e85f5ull},
                               {4, 0xf9fc1903f8438492ull, 0x77ddd53d89e78195ull}});
  ExpectBytePins<EventEngine>("event", Approach::kMacaronNoCluster,
                              {{1, 0x568cf5b304c30c16ull, 0xa89198007c8fdda6ull},
                               {4, 0x82f6a86eadaad6cfull, 0xdc9176b8af6bfcddull}});
}

}  // namespace
}  // namespace macaron
