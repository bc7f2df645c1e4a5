// Sharded serving runtime shared by the replay and event engines.
//
// Both engines are natively sharded (DESIGN.md "Sharded serving"): requests
// are consistent-hash partitioned across `num_shards` serving shards at
// ingest (one Mix64 per request, reused by ShardRouter::ShardOf and every
// cache level below), each shard owns every piece of per-object serving
// state (OSC, cluster slice, TTL shadow, in-flight table, RNG stream,
// counters, billing ledger, event queue), and windows replay
// shard-parallel on one shared pool while the controller observes the
// window's raw stream on the calling thread. Shards share no mutable state
// during replay, and all cross-shard aggregation (controller inputs at
// boundaries, the final RunResult merge) folds in fixed shard order
// 0..S-1, so the thread count can never affect any output bit.
// num_shards = 1 routes everything through shard 0 and reproduces the
// historical sequential engines exactly.
//
// The request stream arrives through a RequestSource, one SoA chunk at a
// time (decode-ahead overlaps the next chunk's decode with replay), so a
// trace never has to exist in memory at once. Windows are split into
// chunk-bounded segments; the split preserves per-shard request order,
// controller observation order, RNG streams, and the boundary sequence, so
// streamed and materialized replays of the same stream are bit-identical.
//
// ShardRuntime owns everything the two engines share: shards and the pool,
// setup, billing through per-shard ledgers, repricing, segment partition
// and serve/observe overlap, the three-phase window boundary, and the
// shard-order fold. An engine derives from it and supplies only what makes
// it that engine, through the hooks below. Hooks are virtual only at
// segment, boundary, or run granularity; the per-request handler is passed
// to ServeBatch as a lambda, so it inlines into the batch loop with no
// indirect call.

#ifndef MACARON_SRC_SIM_SHARD_RUNTIME_H_
#define MACARON_SRC_SIM_SHARD_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/cache/inflight.h"
#include "src/cache/replay_batch.h"
#include "src/cache/ttl_cache.h"
#include "src/cloudsim/event_queue.h"
#include "src/cloudsim/latency.h"
#include "src/cluster/cache_cluster.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/controller/controller.h"
#include "src/obs/metrics.h"
#include "src/osc/osc.h"
#include "src/pricing/ledger.h"
#include "src/pricing/price_schedule.h"
#include "src/sim/engine_config.h"
#include "src/sim/run_result.h"
#include "src/sim/shard_router.h"
#include "src/trace/request_source.h"

namespace macaron {

// One shard's slice of a reconfiguration decision (ShareOf splits).
struct ShardShare {
  uint64_t osc_capacity = 0;
  size_t cluster_nodes = 0;
  SimDuration ttl = 0;
};

class ShardRuntime {
 public:
  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  // Setup, chunked segment replay with boundary catch-up, the final
  // boundary, OnRunEnd, and the fold. Call once.
  RunResult Run();

 protected:
  // All state one serving shard owns. Everything mutated on a worker thread
  // during replay lives here; a shard never touches another shard's fields.
  struct Shard {
    explicit Shard(const pricing::Ledger& l) : ledger(l) {}

    // Macaron-family components (per-shard slices).
    std::unique_ptr<ObjectStorageCache> osc;
    std::unique_ptr<CacheCluster> cluster;
    std::unique_ptr<TtlCache> ttl_shadow;
    InflightTable inflight;
    Rng rng{0};
    // Event engine only: deferred admissions and scheduled reconfiguration
    // applies, shard-local.
    EventQueue queue;

    // Partial RunResult: merged deterministically after the run. Every
    // data-path dollar (and egress byte) is posted to the ledger, which
    // integrates held bytes and cluster nodes between this shard's own
    // event times, so the per-shard integrals are exact and sum to the
    // unsharded values.
    pricing::Ledger ledger;
    uint64_t gets = 0;
    uint64_t cluster_hits = 0;
    uint64_t osc_hits = 0;
    uint64_t remote_fetches = 0;
    uint64_t delayed_hits = 0;
    PercentileTracker latency_ms;

    // Replicated baseline state (id-partitioned, so per-shard sets are an
    // exact partition of the global first-touch set).
    std::unordered_set<ObjectId> seen;
    uint64_t known_dataset_bytes = 0;

    // Per-shard metrics registry (allocated only when the run has a
    // metrics sink); folded into the engine sink after the run.
    std::unique_ptr<obs::MetricsRegistry> metrics;

    // This window's requests, SoA columns carrying the ingest-time hash.
    ReplayBatch batch;
  };

  // `name_suffix` is appended to the approach name in the RunResult.
  ShardRuntime(const EngineConfig& cfg, RequestSource& source, const char* name_suffix);
  virtual ~ShardRuntime() = default;

  // --- Engine hooks ---

  // Setup: the data-set size reported in the RunResult, which also sizes
  // the analyzer (ConfigureAnalyzer's `dataset`).
  virtual uint64_t DatasetBytes() const { return info_.stats.unique_bytes; }
  // Setup: the analyzer fields the engines size differently (largest
  // mini-cache, replacement policy). Everything else is shared.
  virtual void ConfigureAnalyzer(AnalyzerConfig& analyzer, uint64_t dataset) const = 0;
  // Segment: serves this shard's batch. Implementations call ServeBatch.
  virtual void ReplayShardBatch(Shard& sh) = 0;
  // Boundary phase A, inside the maintenance fan-out: before and after the
  // shared integrate / block flush / TTL expiry / GC.
  virtual void BeginMaintenance(Shard& /*sh*/, SimTime /*t*/) {}
  virtual void EndMaintenance(Shard& /*sh*/, size_t /*s*/, SimTime /*t*/) {}
  // Boundary phase B: an optimized decision, on the calling thread with the
  // shards idle, after the shared overhead accounting.
  virtual void OnDecision(SimTime t, const ReconfigDecision& d) = 0;
  // After the last boundary, before the shard-order fold.
  virtual void OnRunEnd() {}

  // --- Building blocks for the hooks ---

  // The prefetching batch loop: calls handle(time, id, size, op, h) for
  // every request of the shard's batch, in order.
  template <typename Handler>
  void ServeBatch(Shard& sh, Handler&& handle) {
    const ReplayBatch& b = sh.batch;
    // Prefetch distance for the OSC order index / TTL shadow of upcoming
    // requests; see ReplayKernel (eviction_policy.cc) for the rationale. The
    // cluster is skipped: reaching its per-node index would duplicate ring
    // routing here.
    constexpr size_t kPrefetchAhead = 8;
    const size_t n = b.size();
    for (size_t i = 0; i < n; ++i) {
      if (i + kPrefetchAhead < n) {
        const uint64_t ahead = b.hashes[i + kPrefetchAhead];
        if (sh.osc != nullptr) {
          sh.osc->PrefetchPrehashed(ahead);
        }
        if (sh.ttl_shadow != nullptr) {
          sh.ttl_shadow->PrefetchPrehashed(ahead);
        }
      }
      handle(b.times[i], b.ids[i], b.sizes[i], b.ops[i], b.hashes[i]);
    }
  }

  // A GET served from the remote data lake: egress plus one GET operation.
  void BillRemoteFetch(Shard& sh, uint64_t size) {
    ++sh.remote_fetches;
    sh.ledger.Egress(size);
    sh.ledger.Gets(1);
  }
  // A DELETE through every Macaron-family cache level of the shard.
  void EraseObject(Shard& sh, ObjectId id, uint64_t h) {
    sh.osc->DeletePrehashed(id, h);
    if (sh.ttl_shadow != nullptr) {
      sh.ttl_shadow->ErasePrehashed(id, h);
    }
    if (sh.cluster != nullptr) {
      sh.cluster->DeleteHashed(id, h);
    }
    sh.inflight.Erase(id);
  }

  // Bytes the shard holds in object storage: the OSC's stored bytes, or
  // Replicated's replica (the known dataset inflated by dark data).
  double HeldBytes(const Shard& sh) const {
    if (sh.osc != nullptr) {
      return static_cast<double>(sh.osc->stored_bytes());
    }
    if (cfg_.approach == Approach::kReplicated) {
      return static_cast<double>(sh.known_dataset_bytes) / (1.0 - cfg_.dark_data_fraction);
    }
    return 0.0;
  }
  // Advances the shard's ledger integrals to `t`. Per request, so inline.
  void Integrate(Shard& sh, SimTime t) {
    sh.ledger.AdvanceTo(t, HeldBytes(sh), sh.cluster != nullptr ? sh.cluster->num_nodes() : 0);
  }
  // Shard `s`'s slice of `d`.
  ShardShare ShareFor(const ReconfigDecision& d, size_t s) const;
  // The one per-shard apply of a Macaron or Macaron-TTL decision, at `now`.
  // The replay engine calls it at the boundary; the event engine from the
  // scheduled reconfiguration event.
  void ApplyToShard(Shard& sh, const ShardShare& share, SimTime now);

  // ECPC-style approaches: an elastic cache cluster is the only cache level.
  bool IsElasticClusterCache() const;

  const EngineConfig& cfg_;
  const SourceInfo& info_;
  // The scaled-infra base book and the window-aligned price shocks. Shard
  // ledgers bill against it; the controller sees the epoch in force.
  const PriceSchedule schedule_;
  GroundTruthLatency truth_;
  FittedLatencyGenerator fitted_;
  int num_shards_;
  ThreadPool pool_;
  RunResult result_;
  std::vector<Shard> shards_;
  // Declared after pool_: the controller's bank destructors join any
  // in-flight batch replay, which needs the pool alive.
  std::unique_ptr<MacaronController> controller_;

  // Elastic-cluster-cache node size (DRAM for ECPC, NVMe for flash-ECPC);
  // Macaron's own cluster uses the DRAM default.
  uint64_t node_usable_ = 0;

 private:
  bool IsMacaronFamily() const;
  void Setup();
  void ReplaySegment(const ReplayBatch& chunk, size_t begin, size_t end);
  void WindowBoundary(SimTime t);
  void Finalize();
  void ChargeOscOps(Shard& sh);
  // At a boundary where a price epoch starts: bills every shard's pending
  // OSC ops and integrals at the outgoing book, then moves the ledgers and
  // the controller to the new one.
  void Reprice(SimTime t);

  RequestSource& source_;
  const char* name_suffix_;
  ShardRouter router_;

  // ReplaySegment scratch for the count-then-scatter shard partition
  // (per-row shard ids, then per-shard write cursors), reused across
  // segments.
  std::vector<uint32_t> shard_of_scratch_;
  std::vector<size_t> shard_cursor_scratch_;
};

}  // namespace macaron

#endif  // MACARON_SRC_SIM_SHARD_RUNTIME_H_
