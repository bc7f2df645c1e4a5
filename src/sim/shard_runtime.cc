#include "src/sim/shard_runtime.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/obs/decision_trace.h"

namespace macaron {

ShardRuntime::ShardRuntime(const EngineConfig& cfg, RequestSource& source,
                           const char* name_suffix)
    : cfg_(cfg),
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
      source_(source),
      name_suffix_(name_suffix),
      router_(num_shards_) {}

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

bool ShardRuntime::IsElasticClusterCache() const {
  return cfg_.approach == Approach::kEcpc || cfg_.approach == Approach::kFlashEcpc;
}

void ShardRuntime::Setup() {
  result_.trace_name = info_.name;
  result_.approach_name = std::string(ApproachName(cfg_.approach)) + name_suffix_;
  // Shocks at or before t=0 are in force from the very first request (no
  // boundary precedes it); infrastructure rates are the same in every epoch.
  const PriceBook& prices = schedule_.At(0);

  const TraceStats& stats = info_.stats;
  const uint64_t dataset = DatasetBytes();
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
  // (and the event engine's deferred admission cannot resurrect it).
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

  const bool uses_controller = cfg_.approach == Approach::kMacaron ||
                               cfg_.approach == Approach::kMacaronNoCluster ||
                               cfg_.approach == Approach::kMacaronTtl || IsElasticClusterCache();
  if (uses_controller) {
    ControllerConfig cc;
    cc.window = cfg_.window;
    cc.observation = cfg_.observation;
    cc.analyzer.sampling_ratio = sampling_ratio;
    cc.analyzer.num_minicaches = cfg_.num_minicaches;
    cc.analyzer.min_capacity_bytes = cfg_.min_minicache_bytes;
    ConfigureAnalyzer(cc.analyzer, dataset);
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
      ReplayShardBatch(shards_[s]);
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
    BeginMaintenance(sh, t);
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
    EndMaintenance(sh, s, t);
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
      OnDecision(t, d);
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

void ShardRuntime::Finalize() {
  const SimTime end = info_.end_time;
  const SimDuration span = std::max<SimDuration>(end, 1);

  // Close every shard's ledger (still shard-local, so a single shard
  // reproduces the unsharded addition sequence exactly). The OSC charge
  // bills operations of events that ran after the last boundary (the event
  // engine's final drain); otherwise it adds +0.0.
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
  OnRunEnd();
  Finalize();
  return std::move(result_);
}

}  // namespace macaron
