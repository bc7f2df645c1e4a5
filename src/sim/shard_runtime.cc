// The sharded serving runtime: the one runner under both engines.
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
// ReplayEngine and EventEngine run the same ShardRuntime. What is left of
// the AWS prototype that the event engine models is one Fidelity preset;
// each entry point picks its preset, and nothing else can set one.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/cache/inflight.h"
#include "src/cache/replay_batch.h"
#include "src/cache/ttl_cache.h"
#include "src/cloudsim/event_queue.h"
#include "src/cloudsim/latency.h"
#include "src/cluster/cache_cluster.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/controller/cluster_sizer.h"
#include "src/controller/controller.h"
#include "src/obs/decision_trace.h"
#include "src/obs/metrics.h"
#include "src/osc/osc.h"
#include "src/pricing/ledger.h"
#include "src/pricing/price_schedule.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/sim/shard_router.h"

namespace macaron {

const char* ApproachName(Approach a) {
  switch (a) {
    case Approach::kRemote:
      return "remote";
    case Approach::kReplicated:
      return "replicated";
    case Approach::kEcpc:
      return "ecpc";
    case Approach::kFlashEcpc:
      return "flash-ecpc";
    case Approach::kMacaron:
      return "macaron+cc";
    case Approach::kMacaronNoCluster:
      return "macaron";
    case Approach::kMacaronTtl:
      return "macaron-ttl";
    case Approach::kStaticCapacity:
      return "static-capacity";
    case Approach::kStaticTtl:
      return "static-ttl";
    default:
      return "unknown";
  }
}

PriceBook ScaledInfraPrices(const PriceBook& prices, double infra_scale) {
  PriceBook out = prices;
  out.vm_per_hour *= infra_scale;
  out.cache_node_per_hour *= infra_scale;
  out.lambda_per_gb_second *= infra_scale;
  out.cache_node_usable_bytes = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(prices.cache_node_usable_bytes) * infra_scale));
  out.flash_node_per_hour *= infra_scale;
  out.flash_node_usable_bytes = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(prices.flash_node_usable_bytes) * infra_scale));
  return out;
}

std::string RunResult::Summary() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s/%s: total=$%.4f (egress=%.4f cap=%.4f op=%.4f infra=%.4f cluster=%.4f "
                "sls=%.4f) hits[cc:osc:rem:dly]=%llu:%llu:%llu:%llu avg_lat=%.1fms",
                trace_name.c_str(), approach_name.c_str(), costs.Total(),
                costs.Get(CostCategory::kEgress), costs.Get(CostCategory::kCapacity),
                costs.Get(CostCategory::kOperation), costs.Get(CostCategory::kInfra),
                costs.Get(CostCategory::kClusterNodes), costs.Get(CostCategory::kServerless),
                static_cast<unsigned long long>(cluster_hits),
                static_cast<unsigned long long>(osc_hits),
                static_cast<unsigned long long>(remote_fetches),
                static_cast<unsigned long long>(delayed_hits), MeanLatencyMs());
  return buf;
}

namespace {

// Where the AWS prototype differs from an instantaneous replay: one field
// per deliberate engine difference (DESIGN.md "Deliberate engine
// differences"). Exactly two presets exist, one per engine entry point; the
// engine kind already identifies the preset in sweep fingerprints.
struct Fidelity {
  // Appended to ApproachName in the RunResult.
  const char* name_suffix;
  // Client -> cache engine network hop (consistent-hash routing + RPC),
  // added to every GET latency.
  double client_hop_ms;
  // A remote fetch admits into the caches when it completes: a shard event
  // carrying the fill ticket, so a DELETE or eviction mid-flight cancels it.
  // The object is therefore uncached while in flight, and a GET consults
  // the in-flight table last instead of first.
  bool deferred_admission;
  // A decision applies reconfig_seconds after its boundary, from a
  // scheduled per-shard event, while requests keep being served (§7.7).
  // Timelines record the requested configuration at the apply time and are
  // sorted into apply order at the end of the run.
  bool deferred_reconfiguration;
  // The largest mini-cache is this multiple of the data-set size (at least
  // twice the mini-cache floor). Above 1, the largest mini-cache truly
  // never evicts, so sampling noise cannot hide the cost of slightly
  // undersized caches.
  double analyzer_headroom;
};

constexpr Fidelity kReplayFidelity{.name_suffix = "",
                                   .client_hop_ms = 0.0,
                                   .deferred_admission = false,
                                   .deferred_reconfiguration = false,
                                   .analyzer_headroom = 1.15};
constexpr Fidelity kPrototypeFidelity{.name_suffix = "-proto",
                                      .client_hop_ms = 0.3,
                                      .deferred_admission = true,
                                      .deferred_reconfiguration = true,
                                      .analyzer_headroom = 1.0};

// One shard's slice of a reconfiguration decision (ShareOf splits).
struct ShardShare {
  uint64_t osc_capacity = 0;
  size_t cluster_nodes = 0;
  SimDuration ttl = 0;
};

class ShardRuntime {
 public:
  ShardRuntime(const EngineConfig& cfg, RequestSource& source, const Fidelity& fidelity);
  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  // Setup, chunked segment replay with boundary catch-up, the final
  // boundary and event drain, and the fold. Call once.
  RunResult Run();

 private:
  // All state one serving shard owns. Everything mutated on a worker thread
  // during replay lives here; a shard never touches another shard's fields.
  struct Shard {
    explicit Shard(const pricing::Ledger& l) : ledger(l) {}

    // Macaron-family components (per-shard slices); the elastic cluster
    // caches use `cluster` alone.
    std::unique_ptr<ObjectStorageCache> osc;
    std::unique_ptr<CacheCluster> cluster;
    std::unique_ptr<TtlCache> ttl_shadow;
    InflightTable inflight;
    Rng rng{0};
    // Deferred admissions and reconfiguration applies; stays empty unless
    // the fidelity defers them.
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

  bool IsMacaronFamily() const;
  // The Macaron approaches the controller reconfigures (not the static ones).
  bool IsAdaptiveMacaron() const {
    return cfg_.approach == Approach::kMacaron || cfg_.approach == Approach::kMacaronNoCluster ||
           cfg_.approach == Approach::kMacaronTtl;
  }
  // ECPC-style approaches: an elastic cache cluster is the only cache level.
  bool IsElasticClusterCache() const {
    return cfg_.approach == Approach::kEcpc || cfg_.approach == Approach::kFlashEcpc;
  }
  bool UsesEventQueue() const {
    return fid_.deferred_admission || fid_.deferred_reconfiguration;
  }

  void Setup();
  void ReplaySegment(const ReplayBatch& chunk, size_t begin, size_t end);
  void WindowBoundary(SimTime t);
  void ApplyDecision(SimTime t, const ReconfigDecision& d);
  void RunEnd();
  void Finalize();

  // --- Serving ---

  // The prefetching batch loop: serves every request of the shard's batch,
  // in order. The handler is a direct, non-virtual call the compiler can
  // inline into the loop.
  void ServeBatch(Shard& sh);
  // Request fields arrive as columns straight from the shard batch; no
  // Request struct is materialized. `h` is Mix64(id), computed once at
  // ingest and reused by every cache level.
  void ServeRequest(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op, uint64_t h);
  void GetMacaron(Shard& sh, SimTime time, ObjectId id, uint64_t size, uint64_t h);
  // A GET whose fetch is still in flight waits for it (§5.2): a delayed
  // hit. Returns false if nothing is in flight for `id`.
  bool ServeDelayedHit(Shard& sh, ObjectId id, SimTime time);
  // The one admit path: PUTs, and remote fetches at arrival or completion.
  void Admit(Shard& sh, ObjectId id, uint64_t h, uint64_t size, SimTime t);
  void RecordLatency(Shard& sh, DataSource source, uint64_t size) {
    if (cfg_.measure_latency) {
      sh.latency_ms.Add(fid_.client_hop_ms + fitted_.SampleMs(source, size, sh.rng));
    }
  }
  // A GET served from the remote data lake: egress plus one GET operation.
  void BillRemoteFetch(Shard& sh, uint64_t size) {
    ++sh.remote_fetches;
    sh.ledger.Egress(size);
    sh.ledger.Gets(1);
  }

  // --- Billing ---

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
  void ChargeOscOps(Shard& sh);
  // At a boundary where a price epoch starts: bills every shard's pending
  // OSC ops and integrals at the outgoing book, then moves the ledgers and
  // the controller to the new one.
  void Reprice(SimTime t);

  // Shard `s`'s slice of `d`.
  ShardShare ShareFor(const ReconfigDecision& d, size_t s) const;
  // The one per-shard apply of a Macaron or Macaron-TTL decision, at `now`:
  // at the boundary, or from the scheduled reconfiguration event.
  void ApplyToShard(Shard& sh, const ShardShare& share, SimTime now);

  const EngineConfig& cfg_;
  const Fidelity fid_;
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
  // A cluster hit's latency source: flash for flash-ECPC, DRAM otherwise.
  DataSource cluster_hit_source_;
  // Admission-bypass extension state. Written only at window boundaries
  // (shards idle), read by shards during replay.
  bool admission_bypass_ = false;
  int min_capacity_streak_ = 0;

  RequestSource& source_;
  ShardRouter router_;

  // ReplaySegment scratch for the count-then-scatter shard partition
  // (per-row shard ids, then per-shard write cursors), reused across
  // segments.
  std::vector<uint32_t> shard_of_scratch_;
  std::vector<size_t> shard_cursor_scratch_;
};

ShardRuntime::ShardRuntime(const EngineConfig& cfg, RequestSource& source,
                           const Fidelity& fidelity)
    : cfg_(cfg),
      fid_(fidelity),
      info_(source.Info()),
      schedule_(ScaledInfraPrices(cfg.prices, cfg.infra_scale),
                AlignShocksToWindows(cfg.price_shocks, cfg.window)),
      truth_(cfg.scenario),
      fitted_(truth_, /*samples_per_bucket=*/400, cfg.seed ^ 0xfeed),
      num_shards_(std::max(cfg.num_shards, 1)),
      // One shared pool serves both serving shards and the analyzer's
      // mini-sim fan-outs: its size is the larger of the two demands, so
      // analyzer_threads no longer spawns a second pool that would
      // oversubscribe the machine (threads are a shared budget; any size
      // produces bit-identical outputs).
      pool_(std::max(std::min(std::max(cfg.shard_threads, 1), num_shards_),
                     std::min(std::max(cfg.analyzer_threads, 1), 1024))),
      cluster_hit_source_(cfg.approach == Approach::kFlashEcpc ? DataSource::kFlash
                                                               : DataSource::kCacheCluster),
      source_(source),
      router_(num_shards_) {
  // The deferred paths exist only in the adaptive Macaron approaches'
  // admission and apply.
  if (UsesEventQueue()) {
    MACARON_CHECK(IsAdaptiveMacaron());
  }
}

bool ShardRuntime::IsMacaronFamily() const {
  switch (cfg_.approach) {
    case Approach::kMacaron:
    case Approach::kMacaronNoCluster:
    case Approach::kMacaronTtl:
    case Approach::kStaticCapacity:
    case Approach::kStaticTtl:
      return true;
    default:
      return false;
  }
}

void ShardRuntime::Setup() {
  result_.trace_name = info_.name;
  result_.approach_name = std::string(ApproachName(cfg_.approach)) + fid_.name_suffix;
  // Shocks at or before t=0 are in force from the very first request (no
  // boundary precedes it); infrastructure rates are the same in every epoch.
  const PriceBook& prices = schedule_.At(0);

  const TraceStats& stats = info_.stats;
  const uint64_t dataset =
      cfg_.dataset_bytes_hint != 0 ? cfg_.dataset_bytes_hint : stats.unique_bytes;
  result_.dataset_bytes = dataset;

  // Spatial sampling needs a minimum object population for stable curves;
  // small (scaled-down) traces sample at a higher ratio.
  double sampling_ratio = cfg_.sampling_ratio;
  if (stats.unique_objects > 0) {
    constexpr double kTargetSampledObjects = 2000.0;
    const double needed = kTargetSampledObjects / static_cast<double>(stats.unique_objects);
    sampling_ratio = std::clamp(needed, cfg_.sampling_ratio, 1.0);
  }

  // Default cluster economics (Macaron's own DRAM tier); overridden below
  // for the elastic-cluster-cache approaches.
  node_usable_ = prices.cache_node_usable_bytes;
  double node_per_hour = prices.cache_node_per_hour;
  if (cfg_.approach == Approach::kFlashEcpc) {
    node_usable_ = prices.flash_node_usable_bytes;
    node_per_hour = prices.flash_node_per_hour;
  }
  // Replicated's replica turns over once per retention; the churn is
  // synchronized to it as egress.
  const SimDuration churn_retention =
      cfg_.approach == Approach::kReplicated ? cfg_.retention : 0;
  if (cfg_.approach == Approach::kStaticCapacity) {
    MACARON_CHECK(cfg_.static_capacity_bytes > 0);
  }

  shards_.reserve(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    Shard& sh =
        shards_.emplace_back(pricing::Ledger(schedule_, 0, churn_retention, node_per_hour));
    // Shard 0 inherits the historical engine seed so num_shards = 1
    // reproduces the unsharded engine's latency draws exactly; other
    // shards fork deterministic independent streams.
    sh.rng = Rng((cfg_.seed ^ 0x5eed) ^
                 (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(s)));
    if (IsMacaronFamily()) {
      sh.osc = std::make_unique<ObjectStorageCache>(cfg_.packing);
      if (cfg_.approach == Approach::kMacaronTtl || cfg_.approach == Approach::kStaticTtl) {
        const SimDuration initial_ttl = cfg_.approach == Approach::kStaticTtl
                                            ? cfg_.static_ttl
                                            : info_.end_time + 2 * kDay;
        MACARON_CHECK(initial_ttl > 0);
        sh.ttl_shadow = std::make_unique<TtlCache>(initial_ttl);
      }
      if (cfg_.approach == Approach::kMacaron) {
        sh.cluster = std::make_unique<CacheCluster>(prices.cache_node_usable_bytes);
      }
    } else if (IsElasticClusterCache()) {
      sh.cluster = std::make_unique<CacheCluster>(node_usable_);
      sh.cluster->Resize(1);
    }
  }
  // Coalescer invalidation wiring: a TTL expiry or capacity eviction of an
  // object whose fill is still outstanding drops the in-flight entry, so
  // later requests re-fetch instead of coalescing onto a discarded fill
  // (and a deferred admission cannot resurrect it).
  // Done once every shard is in place, so the captured pointers are stable.
  for (Shard& sh : shards_) {
    Shard* p = &sh;
    if (sh.ttl_shadow != nullptr) {
      sh.ttl_shadow->set_evict_callback([p](ObjectId id, uint64_t size) {
        (void)size;
        p->osc->Delete(id);
        p->inflight.Invalidate(id);
      });
    }
    if (sh.osc != nullptr) {
      sh.osc->set_evict_observer([p](ObjectId id) { p->inflight.Invalidate(id); });
    }
  }

  if (IsAdaptiveMacaron() || IsElasticClusterCache()) {
    ControllerConfig cc;
    cc.window = cfg_.window;
    cc.observation = cfg_.observation;
    cc.analyzer.sampling_ratio = sampling_ratio;
    cc.analyzer.num_minicaches = cfg_.num_minicaches;
    cc.analyzer.min_capacity_bytes = cfg_.min_minicache_bytes;
    cc.analyzer.max_capacity_bytes = std::max<uint64_t>(
        static_cast<uint64_t>(static_cast<double>(dataset) * fid_.analyzer_headroom),
        cfg_.min_minicache_bytes * 2);
    cc.analyzer.policy = cfg_.packing.policy;
    cc.analyzer.decay_per_day = cfg_.decay_per_day;
    cc.analyzer.seed = cfg_.seed ^ 0xc0;
    cc.analyzer.threads = cfg_.analyzer_threads;
    cc.packing_enabled = cfg_.packing.packing_enabled;
    cc.packing_block_bytes = cfg_.packing.block_bytes;
    cc.packing_max_objects = cfg_.packing.max_objects_per_block;
    cc.max_cluster_nodes = cfg_.max_cluster_nodes;
    cc.cluster_shards = static_cast<size_t>(num_shards_);
    switch (cfg_.approach) {
      case Approach::kMacaron: {
        cc.enable_cluster = true;
        cc.analyzer.enable_alc = true;
        // Target: replica-equivalent latency (local object storage) for the
        // trace's typical object size, with a small headroom margin.
        cc.cluster_latency_target_ms =
            fitted_.FittedMeanMs(DataSource::kOsc, stats.median_object_bytes) * 0.95;
        break;
      }
      case Approach::kMacaronTtl:
        cc.mode = OptimizationMode::kTtl;
        cc.analyzer.enable_ttl = true;
        cc.analyzer.max_ttl = std::max<SimDuration>(info_.duration(), kDay);
        break;
      case Approach::kEcpc:
      case Approach::kFlashEcpc:
        cc.capacity_pricing = cfg_.approach == Approach::kFlashEcpc ? CapacityPricing::kFlash
                                                                    : CapacityPricing::kDram;
        cc.packing_enabled = false;
        // Caching everything in DRAM/flash during observation is not
        // viable; these start optimizing after the first window instead.
        cc.observation = cfg_.window;
        break;
      default:
        break;
    }
    controller_ = std::make_unique<MacaronController>(cc, prices, &fitted_);
    // The analyzer's mini-sim banks fork their batch replays on the shared
    // engine pool (sized above to cover analyzer_threads), overlapping them
    // with serving. The outputs are bit-identical at any pool size.
    controller_->SetExecution(&pool_);
  }

  // Observability wiring (no-op when both sinks are null — the default).
  // The controller runs on the calling thread and registers into the
  // engine's sink directly; shard components register into per-shard
  // registries that fold into the sink — in shard order — after the run,
  // so worker threads never share a counter.
  if (controller_ != nullptr) {
    controller_->SetObservability(cfg_.decision_trace, cfg_.metrics);
  }
  if (cfg_.metrics != nullptr) {
    for (Shard& sh : shards_) {
      sh.metrics = std::make_unique<obs::MetricsRegistry>();
      if (sh.osc != nullptr) {
        sh.osc->RegisterMetrics(sh.metrics.get());
      }
      if (sh.cluster != nullptr) {
        sh.cluster->RegisterMetrics(sh.metrics.get());
      }
      sh.inflight.RegisterMetrics(sh.metrics.get());
    }
  }
}

void ShardRuntime::ServeBatch(Shard& sh) {
  const ReplayBatch& b = sh.batch;
  // Prefetch distance for the OSC order index / TTL shadow of upcoming
  // requests; see ReplayKernel (eviction_policy.cc) for the rationale. The
  // cluster is skipped: reaching its per-node index would duplicate ring
  // routing here.
  constexpr size_t kPrefetchAhead = 8;
  const bool drain_events = UsesEventQueue();
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
    // Shard-local events due by this request's time (deferred admissions,
    // scheduled reconfiguration applies) fire first, exactly as a single
    // global event queue interleaves them with the request stream.
    if (drain_events) {
      sh.queue.RunUntil(b.times[i]);
    }
    ServeRequest(sh, b.times[i], b.ids[i], b.sizes[i], b.ops[i], b.hashes[i]);
  }
}

void ShardRuntime::ServeRequest(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op,
                                uint64_t h) {
  Integrate(sh, time);
  if (cfg_.approach == Approach::kReplicated && (op == Op::kGet || op == Op::kPut)) {
    if (sh.seen.insert(id).second) {
      sh.known_dataset_bytes += size;
      // Replication must transfer every byte of the (growing) dataset once,
      // dark data included: first-touch bytes proxy the dataset growth rate
      // the paper bills sync egress on (§7.1).
      const double sync_bytes =
          static_cast<double>(size) / (1.0 - cfg_.dark_data_fraction);
      sh.ledger.Egress(static_cast<uint64_t>(sync_bytes));
    }
  }
  switch (op) {
    case Op::kGet:
      ++sh.gets;
      switch (cfg_.approach) {
        case Approach::kRemote:
          BillRemoteFetch(sh, size);
          RecordLatency(sh, DataSource::kRemoteLake, size);
          break;
        case Approach::kReplicated:
          // All reads are served by the local replica.
          ++sh.osc_hits;
          sh.ledger.Gets(1);
          RecordLatency(sh, DataSource::kOsc, size);
          break;
        case Approach::kEcpc:
        case Approach::kFlashEcpc:
          if (sh.cluster->GetHashed(id, h)) {
            ++sh.cluster_hits;
            RecordLatency(sh, cluster_hit_source_, size);
            break;
          }
          BillRemoteFetch(sh, size);
          RecordLatency(sh, DataSource::kRemoteLake, size);
          sh.cluster->PutHashed(id, h, size);
          break;
        default:
          GetMacaron(sh, time, id, size, h);
          break;
      }
      break;
    case Op::kPut:
      // Write-through: the PUT to the remote lake (free ingress, identical
      // across approaches) is excluded; only cache-side effects are metered.
      switch (cfg_.approach) {
        case Approach::kRemote:
        case Approach::kReplicated:
          break;
        case Approach::kEcpc:
        case Approach::kFlashEcpc:
          sh.cluster->PutHashed(id, h, size);
          break;
        default:
          Admit(sh, id, h, size, time);
          break;
      }
      break;
    case Op::kDelete:
      switch (cfg_.approach) {
        case Approach::kRemote:
          break;
        case Approach::kReplicated:
          if (sh.seen.erase(id) > 0) {
            sh.known_dataset_bytes -= std::min(sh.known_dataset_bytes, size);
          }
          break;
        case Approach::kEcpc:
        case Approach::kFlashEcpc:
          sh.cluster->DeleteHashed(id, h);
          break;
        default:
          // Through every Macaron-family cache level of the shard.
          sh.osc->DeletePrehashed(id, h);
          if (sh.ttl_shadow != nullptr) {
            sh.ttl_shadow->ErasePrehashed(id, h);
          }
          if (sh.cluster != nullptr) {
            sh.cluster->DeleteHashed(id, h);
          }
          sh.inflight.Erase(id);
          break;
      }
      break;
  }
}

bool ShardRuntime::ServeDelayedHit(Shard& sh, ObjectId id, SimTime time) {
  const auto completion = sh.inflight.Pending(id, time);
  if (!completion) {
    return false;
  }
  ++sh.delayed_hits;
  if (cfg_.measure_latency) {
    sh.latency_ms.Add(fid_.client_hop_ms + static_cast<double>(*completion - time));
  }
  return true;
}

void ShardRuntime::GetMacaron(Shard& sh, SimTime time, ObjectId id, uint64_t size,
                              uint64_t h) {
  // Admitted at request time, an in-flight object already sits in the
  // caches' metadata although it is not yet available, so the in-flight
  // table is consulted first. Deferred, it is uncached until its fill
  // lands, and a cache hit can only come from a later PUT.
  if (!fid_.deferred_admission && ServeDelayedHit(sh, id, time)) {
    return;
  }
  if (sh.cluster != nullptr && sh.cluster->GetHashed(id, h)) {
    ++sh.cluster_hits;
    RecordLatency(sh, DataSource::kCacheCluster, size);
    return;
  }
  if (sh.osc->LookupPrehashed(id, h)) {
    ++sh.osc_hits;
    if (sh.ttl_shadow != nullptr) {
      sh.ttl_shadow->GetPrehashed(id, h, time);
    }
    RecordLatency(sh, DataSource::kOsc, size);
    if (sh.cluster != nullptr) {
      sh.cluster->PutHashed(id, h, size);  // promote
    }
    return;
  }
  if (fid_.deferred_admission && ServeDelayedHit(sh, id, time)) {
    return;
  }
  BillRemoteFetch(sh, size);
  const double lat = fitted_.SampleMs(DataSource::kRemoteLake, size, sh.rng);
  if (cfg_.measure_latency) {
    sh.latency_ms.Add(fid_.client_hop_ms + lat);
  }
  const SimTime completion = time + static_cast<SimTime>(lat) + 1;
  const uint64_t ticket = sh.inflight.Insert(id, completion);
  if (!fid_.deferred_admission) {
    Admit(sh, id, h, size, time);
    return;
  }
  // The event carries the hash so completion does not rehash, and the fill
  // ticket so a DELETE or mid-flight eviction between now and then cancels
  // the admission instead of resurrecting a dead object.
  Shard* p = &sh;
  sh.queue.Schedule(completion, [this, p, id, h, size, ticket](SimTime now) {
    if (!p->inflight.ClaimTicket(id, ticket)) {
      return;  // superseded: object deleted/evicted/expired mid-flight
    }
    Integrate(*p, now);
    Admit(*p, id, h, size, now);
  });
}

void ShardRuntime::Admit(Shard& sh, ObjectId id, uint64_t h, uint64_t size, SimTime t) {
  if (!admission_bypass_) {
    sh.osc->AdmitPrehashed(id, h, size);
    if (sh.ttl_shadow != nullptr) {
      sh.ttl_shadow->PutPrehashed(id, h, size, t);
    }
  }
  if (sh.cluster != nullptr) {
    sh.cluster->PutHashed(id, h, size);
  }
}

void ShardRuntime::ChargeOscOps(Shard& sh) {
  if (sh.osc == nullptr) {
    return;
  }
  const ObjectStorageCache::OpCounts ops = sh.osc->TakeOps();
  sh.ledger.Operations(ops.gets + ops.gc_block_reads, ops.puts);
}

ShardShare ShardRuntime::ShareFor(const ReconfigDecision& d, size_t s) const {
  ShardShare share;
  share.osc_capacity = ShareOf(d.osc_capacity, num_shards_, static_cast<int>(s));
  share.cluster_nodes =
      static_cast<size_t>(ShareOf(d.cluster_nodes, num_shards_, static_cast<int>(s)));
  share.ttl = d.ttl;
  return share;
}

void ShardRuntime::ApplyToShard(Shard& sh, const ShardShare& share, SimTime now) {
  // A no-op at a boundary (maintenance integrated through `now`); mid-window
  // it closes the integral at the old capacity before it changes.
  Integrate(sh, now);
  switch (cfg_.approach) {
    case Approach::kMacaron:
    case Approach::kMacaronNoCluster:
      sh.osc->EvictToCapacity(share.osc_capacity);
      if (sh.cluster != nullptr) {
        const std::vector<uint32_t> added = sh.cluster->Resize(share.cluster_nodes);
        if (cfg_.enable_priming) {
          sh.ledger.Gets(sh.cluster->Prime(*sh.osc, added));
        }
      }
      break;
    case Approach::kMacaronTtl:
      MACARON_CHECK(sh.ttl_shadow != nullptr);
      sh.ttl_shadow->SetTtl(share.ttl, now);
      sh.osc->RunGc();
      break;
    default:
      break;
  }
}

void ShardRuntime::Reprice(SimTime t) {
  if (shards_[0].ledger.next_epoch_start() > t) {
    return;
  }
  // Everything accrued so far — integrals and pending OSC ops — is billed
  // at the outgoing book before the ledgers move to the new epoch.
  pool_.ParallelFor(shards_.size(), [&](size_t s) {
    ChargeOscOps(shards_[s]);
    shards_[s].ledger.Reprice(t);
  });
  if (controller_ != nullptr) {
    controller_->UpdatePrices(schedule_.At(t));
  }
}

void ShardRuntime::ReplaySegment(const ReplayBatch& chunk, size_t begin, size_t end) {
  // Partition this segment of the decoded chunk into per-shard SoA columns.
  // The hash column was filled once at decode (the one Mix64 of the request
  // path); shard routing and every cache level reuse it. One shard takes
  // the whole segment as a single five-column copy; multiple shards use a
  // count-then-scatter pass (route every row, grow each shard's columns
  // once, then write rows through cursors) instead of per-row push_backs.
  if (num_shards_ == 1) {
    shards_[0].batch.AppendRange(chunk, begin, end);
  } else {
    const size_t n = end - begin;
    if (shard_of_scratch_.size() < n) {
      shard_of_scratch_.resize(n);
    }
    shard_cursor_scratch_.assign(static_cast<size_t>(num_shards_), 0);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t s = static_cast<uint32_t>(router_.ShardOf(chunk.hashes[begin + k]));
      shard_of_scratch_[k] = s;
      ++shard_cursor_scratch_[s];
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      shard_cursor_scratch_[s] = shards_[s].batch.GrowBy(shard_cursor_scratch_[s]);
    }
    for (size_t k = 0; k < n; ++k) {
      ReplayBatch& b = shards_[shard_of_scratch_[k]].batch;
      const size_t w = shard_cursor_scratch_[shard_of_scratch_[k]]++;
      const size_t src = begin + k;
      b.ids[w] = chunk.ids[src];
      b.hashes[w] = chunk.hashes[src];
      b.sizes[w] = chunk.sizes[src];
      b.ops[w] = chunk.ops[src];
      b.times[w] = chunk.times[src];
    }
  }
  // Shards replay their columns on the pool while the controller observes
  // the segment's columns on this thread, which then joins in on whatever
  // shards no worker has claimed yet. The analyzer shares no state with the
  // serving shards and its report is only read at the next boundary —
  // after both sides finish — so the overlap cannot affect any output. Its
  // batch fan-outs additionally outlive this segment, overlapping the next
  // chunk's decode and serving until the next flush or a window boundary
  // joins them. With a workerless pool (or one shard) the fork serves every
  // shard inline before observing, preserving the same results.
  ForkJoin serving = pool_.Fork(shards_.size(), [this](size_t s) {
    if (!shards_[s].batch.empty()) {
      ServeBatch(shards_[s]);
    }
  });
  if (controller_ != nullptr) {
    controller_->ObserveColumns(chunk, begin, end);
  }
  serving.Join();
  for (Shard& sh : shards_) {
    sh.batch.Clear();
  }
}

void ShardRuntime::WindowBoundary(SimTime t) {
  // Phase A: per-shard maintenance (parallel; every touched field is
  // shard-local).
  pool_.ParallelFor(shards_.size(), [&](size_t s) {
    Shard& sh = shards_[s];
    if (UsesEventQueue()) {
      sh.queue.RunUntil(t);  // drain events due at or before the boundary
    }
    Integrate(sh, t);
    if (sh.osc != nullptr) {
      sh.osc->FlushOpenBlock();  // timer-driven flush of a partial block
      if (sh.ttl_shadow != nullptr) {
        sh.ttl_shadow->Expire(t);
      }
      // Collect blocks that deletions/evictions pushed past the GC threshold
      // since the last boundary, so garbage is not billed indefinitely.
      sh.osc->RunGc();
    }
    if (cfg_.approach == Approach::kStaticCapacity && t >= cfg_.observation) {
      sh.osc->EvictToCapacity(
          ShareOf(cfg_.static_capacity_bytes, num_shards_, static_cast<int>(s)));
    }
  });

  // Repricing events aligned to this boundary take effect before the
  // controller optimizes, so the decision already reflects the new
  // economics (integrals were just completed through t at the old rates).
  Reprice(t);

  // Phase B: the controller reconfigures over summed shard state.
  if (controller_ != nullptr) {
    uint64_t garbage = 0;
    for (const Shard& sh : shards_) {
      garbage += sh.osc != nullptr ? sh.osc->garbage_bytes() : 0;
    }
    const ReconfigDecision d = controller_->Reconfigure(t, garbage);
    if (d.optimized) {
      ++result_.reconfigs;
      result_.total_reconfig_seconds += d.reconfig_seconds;
      result_.total_analysis_seconds += d.analysis_seconds;
      result_.costs.Add(CostCategory::kServerless,
                        schedule_.At(t).LambdaCost(d.lambda_gb_seconds));
      ApplyDecision(t, d);
    }
  }

  // Phase C: bill the window's OSC operations and retire finished fills.
  pool_.ParallelFor(shards_.size(), [&](size_t s) {
    Shard& sh = shards_[s];
    ChargeOscOps(sh);
    sh.inflight.Sweep(t);
  });
  // Amend the record the controller just appended with the engine's actual
  // cumulative data-path spend through this boundary (after ChargeOscOps so
  // the window's packing operations are included). Runs on the calling
  // thread, shards idle, fixed fold order — thread-count independent.
  if (controller_ != nullptr && cfg_.decision_trace != nullptr) {
    if (obs::DecisionRecord* rec = cfg_.decision_trace->mutable_last()) {
      double realized = 0.0;
      for (Shard& sh : shards_) {
        realized = sh.ledger.RealizedUsd(t, HeldBytes(sh), realized);
      }
      rec->realized_cost_usd = realized;
    }
  }
}

// An optimized decision, on the calling thread with the shards idle.
void ShardRuntime::ApplyDecision(SimTime t, const ReconfigDecision& d) {
  if (IsElasticClusterCache()) {
    const size_t want = static_cast<size_t>(std::min<uint64_t>(
        (d.osc_capacity + node_usable_ - 1) / node_usable_, cfg_.max_cluster_nodes));
    const size_t total = RoundNodesToShards(want, static_cast<size_t>(num_shards_),
                                            cfg_.max_cluster_nodes);
    pool_.ParallelFor(shards_.size(), [&](size_t s) {
      shards_[s].cluster->Resize(ShareOf(total, num_shards_, static_cast<int>(s)));
    });
    result_.cluster_nodes_timeline.emplace_back(t, total);
    return;
  }
  SimTime apply_at = t;
  if (fid_.deferred_reconfiguration) {
    apply_at = t + static_cast<SimTime>(d.reconfig_seconds * 1000.0);
    for (size_t s = 0; s < shards_.size(); ++s) {
      Shard* p = &shards_[s];
      p->queue.Schedule(apply_at, [this, p, share = ShareFor(d, s)](SimTime now) {
        ApplyToShard(*p, share, now);
      });
    }
  } else {
    pool_.ParallelFor(shards_.size(), [&](size_t s) {
      ApplyToShard(shards_[s], ShareFor(d, s), t);
    });
  }
  // Shares sum to the decision, so the requested configuration is what
  // runs from the apply time on.
  if (cfg_.approach == Approach::kMacaronTtl) {
    result_.ttl_timeline.emplace_back(apply_at, d.ttl);
    return;
  }
  result_.osc_capacity_timeline.emplace_back(apply_at, d.osc_capacity);
  if (shards_[0].cluster != nullptr) {
    result_.cluster_nodes_timeline.emplace_back(apply_at, d.cluster_nodes);
  }
  // Admission-bypass extension: engage when even the best cache
  // configuration is predicted to cost at least as much per window
  // as serving everything remotely (no capacity, no packing PUTs).
  if (cfg_.enable_admission_bypass && !d.cost_curve.empty()) {
    const double best_with_cache = d.cost_curve.y(d.cost_curve.ArgMin());
    const double no_cache_egress = schedule_.At(t).EgressCost(
        static_cast<uint64_t>(d.expected_window_get_bytes));
    if (best_with_cache >= no_cache_egress * 0.98) {
      ++min_capacity_streak_;
    } else {
      min_capacity_streak_ = 0;
    }
    admission_bypass_ = min_capacity_streak_ >= cfg_.admission_bypass_windows;
  }
}

// After the last boundary, before the fold.
void ShardRuntime::RunEnd() {
  if (UsesEventQueue()) {
    // Late events (admissions, a final scheduled apply) still run.
    pool_.ParallelFor(shards_.size(), [&](size_t s) { shards_[s].queue.RunAll(); });
  }
  if (fid_.deferred_reconfiguration) {
    // Entries were appended at scheduling time; apply order is time order
    // with scheduling order breaking ties (a global event queue's tie rule,
    // which sharded queues cannot piggyback on).
    const auto by_time = [](const auto& a, const auto& b) { return a.first < b.first; };
    std::stable_sort(result_.osc_capacity_timeline.begin(),
                     result_.osc_capacity_timeline.end(), by_time);
    std::stable_sort(result_.cluster_nodes_timeline.begin(),
                     result_.cluster_nodes_timeline.end(), by_time);
    std::stable_sort(result_.ttl_timeline.begin(), result_.ttl_timeline.end(), by_time);
  }
  for (const auto& [at, capacity] : result_.osc_capacity_timeline) {
    if (result_.first_optimized_capacity == 0) {
      result_.first_optimized_capacity = capacity;
    }
  }
  for (const auto& [at, ttl] : result_.ttl_timeline) {
    if (result_.first_optimized_ttl == 0) {
      result_.first_optimized_ttl = ttl;
    }
  }
}

void ShardRuntime::Finalize() {
  const SimTime end = info_.end_time;
  const SimDuration span = std::max<SimDuration>(end, 1);

  // Close every shard's ledger (still shard-local, so a single shard
  // reproduces the unsharded addition sequence exactly). The OSC charge
  // bills operations of events that ran after the last boundary (the final
  // event drain); otherwise it adds +0.0.
  double held_byte_ms = 0.0;
  for (Shard& sh : shards_) {
    ChargeOscOps(sh);
    held_byte_ms += sh.ledger.Close();
  }

  // Deterministic merge, fixed shard order 0..S-1. Counters and per-category
  // costs fold by addition; latency samples concatenate in shard order
  // (PercentileTracker preserves insertion order, so the merged tracker
  // serializes identically at any thread count).
  for (Shard& sh : shards_) {
    result_.costs.Merge(sh.ledger.costs());
    result_.gets += sh.gets;
    result_.cluster_hits += sh.cluster_hits;
    result_.osc_hits += sh.osc_hits;
    result_.remote_fetches += sh.remote_fetches;
    result_.delayed_hits += sh.delayed_hits;
    result_.egress_bytes += sh.ledger.egress_bytes();
    for (double v : sh.latency_ms.samples()) {
      result_.latency_ms.Add(v);
    }
  }
  result_.mean_stored_bytes = held_byte_ms / static_cast<double>(span);
  if (IsMacaronFamily() || IsElasticClusterCache()) {
    // One r5.xlarge hosting the controller and OSC manager.
    result_.costs.Add(CostCategory::kInfra, schedule_.At(end).VmCost(span));
  }
  if (cfg_.metrics != nullptr) {
    for (const Shard& sh : shards_) {
      cfg_.metrics->MergeFrom(*sh.metrics);
    }
  }

  // End-of-run conservation, in every build: each GET resolved at exactly
  // one level, and no OSC operation left counted but unbilled.
  MACARON_CHECK(result_.cluster_hits + result_.osc_hits + result_.remote_fetches +
                    result_.delayed_hits ==
                result_.gets);
  for (const Shard& sh : shards_) {
    if (sh.osc != nullptr) {
      const ObjectStorageCache::OpCounts& left = sh.osc->pending_ops();
      MACARON_CHECK(left.puts == 0 && left.gets == 0 && left.gc_block_reads == 0);
    }
  }
}

RunResult ShardRuntime::Run() {
  Setup();
  if (info_.empty()) {
    return std::move(result_);
  }
  ChunkCursor cursor(source_, cfg_.stream_decode_ahead);
  SimTime next_boundary = cfg_.window;
  while (const ReplayBatch* chunk = cursor.Next()) {
    const size_t n = chunk->size();
    size_t i = 0;
    while (i < n) {
      // Boundaries due before the next request fire first (including the
      // catch-up over empty windows the sequential engine performed
      // per-request).
      while (chunk->times[i] >= next_boundary) {
        WindowBoundary(next_boundary);
        next_boundary += cfg_.window;
      }
      size_t j = i;
      while (j < n && chunk->times[j] < next_boundary) {
        ++j;
      }
      ReplaySegment(*chunk, i, j);
      i = j;
    }
  }
  WindowBoundary(info_.end_time + 1);
  RunEnd();
  Finalize();
  return std::move(result_);
}

}  // namespace

RunResult ReplayEngine::Run(const Trace& trace) const {
  TraceSource source(trace);
  return Run(source);
}

RunResult ReplayEngine::Run(RequestSource& source) const {
  return ShardRuntime(config_, source, kReplayFidelity).Run();
}

RunResult EventEngine::Run(const Trace& trace) const {
  TraceSource source(trace);
  return Run(source);
}

RunResult EventEngine::Run(RequestSource& source) const {
  return ShardRuntime(config_, source, kPrototypeFidelity).Run();
}

}  // namespace macaron
