#include "replaybench/src/layers.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unordered_set>
#include <utility>

#include "src/cache/lru_cache.h"
#include "src/cache/ttl_cache.h"
#include "src/cloudsim/latency.h"
#include "src/cluster/cache_cluster.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/controller/controller.h"
#include "src/obs/decision_trace.h"
#include "src/obs/metrics.h"
#include "src/oracle/exact_oracle.h"
#include "src/oracle/oracular.h"
#include "src/osc/osc.h"
#include "src/sim/report_io.h"
#include "src/sweep/fingerprint.h"
#include "src/sweep/result_store.h"

namespace replaybench {

using macaron::Approach;
using macaron::ObjectId;
using macaron::Op;
using macaron::ReplayBatch;
using macaron::SimTime;
using macaron::SourceInfo;
namespace obs = macaron::obs;
namespace sweep = macaron::sweep;

namespace {

// Streamed workloads contribute 8 consecutive slices of this many requests
// to the oracle and sweep layers (sweep_cold uses its 8 headline traces).
constexpr size_t kSliceRequests = 1 << 16;
// Requests replayed into the standalone cache / OSC / cluster / latency
// probes: an equal prefix of every trace in the set, concatenated.
constexpr size_t kLayerRequests = 1 << 20;
// Untraced/traced engine pass pairs; the overhead uses their medians.
constexpr int kOverheadPairs = 2;
constexpr int kResizePrimeReps = 5;
constexpr int kFitReps = 3;

// Where each metric is expected to show (the layer -> e2e map in README.md).
constexpr const char* kSetupStream = "setup_s @ serve_dense, window_churn";
constexpr const char* kSetupSweep = "setup_s @ sweep_cold";
constexpr const char* kServe = "req_per_s, req_per_cpu_s @ serve_dense";
constexpr const char* kServe1t = "req_per_s_1t, req_per_cpu_s_1t @ serve_dense";
constexpr const char* kChurn = "req_per_s, req_per_cpu_s @ window_churn";
constexpr const char* kChurnFanout = "req_per_s vs req_per_s_1t (wall and cpu) @ window_churn";
constexpr const char* kSweep = "req_per_s, req_per_cpu_s @ sweep_cold";
constexpr const char* kCount = "simulated count (same on every host)";
constexpr const char* kOverhead = "tracing overhead (traced vs untraced engine)";

// RequestSource decorator: accumulates the time spent inside FillNext and
// records the gap between consecutive calls (the engine's work on the
// previous chunk when decode-ahead is off). Written on whichever thread
// calls FillNext; read only after the engine run has joined it.
class TimedSource final : public RequestSource {
 public:
  explicit TimedSource(RequestSource& inner) : inner_(inner) {}

  const SourceInfo& Info() const override { return inner_.Info(); }
  void Reset() override {
    inner_.Reset();
    called_ = false;
  }
  bool FillNext(ReplayBatch* out) override {
    const auto t0 = Clock::now();
    if (called_) {
      gaps_ms_.push_back(std::chrono::duration<double, std::milli>(t0 - last_end_).count());
    }
    const bool ok = inner_.FillNext(out);
    last_end_ = Clock::now();
    called_ = true;
    fill_s_ += std::chrono::duration<double>(last_end_ - t0).count();
    return ok;
  }

  double fill_seconds() const { return fill_s_; }
  const std::vector<double>& gaps_ms() const { return gaps_ms_; }

 private:
  RequestSource& inner_;
  bool called_ = false;
  Clock::time_point last_end_;
  double fill_s_ = 0.0;
  std::vector<double> gaps_ms_;
};

// One engine run the engine and controller layers replay.
struct EngineRun {
  RequestSource* source = nullptr;
  StreamWorkload workload;  // config and engine kind; profile unused here
  int shard_threads = 1;
  bool decode_ahead = true;
};

// Everything the traced run feeds the layers, built from the seed.
struct Inputs {
  std::vector<std::unique_ptr<RequestSource>> owned;
  std::vector<EngineRun> runs;
  TraceSet set;               // oracle and sweep inputs
  Trace layer;                // standalone component inputs, time-ordered
  std::vector<uint64_t> hashes;  // Mix64(id) per layer request
  double prepass_s = 0.0;
  double generate_ns_per_req = 0.0;
  EngineConfig config;        // engine config of the layer probes
};

Inputs MakeInputs(WorkloadKind kind, const RunContext& ctx) {
  Inputs in;
  if (kind == WorkloadKind::kSweepCold) {
    std::vector<double> gen_s;
    in.set = MakeHeadlineTraces(ctx.seed, &gen_s);
    double gen_total = 0.0;
    for (const double s : gen_s) {
      gen_total += s;
    }
    in.generate_ns_per_req = gen_total * 1e9 / static_cast<double>(in.set.total_requests());
    StreamWorkload w;
    w.config = SweepConfig(Approach::kMacaron, ctx.seed);
    in.config = w.config;
    for (const auto& t : in.set.traces) {
      const auto t0 = Clock::now();
      in.owned.push_back(std::make_unique<macaron::TraceSource>(*t));
      in.prepass_s += SecondsSince(t0);
      in.runs.push_back({in.owned.back().get(), w, 1, w.config.stream_decode_ahead});
    }
  } else {
    const StreamWorkload w = MakeStreamWorkload(kind, ctx.seed);
    in.config = w.config;
    const auto t0 = Clock::now();
    in.owned.push_back(std::make_unique<macaron::SyntheticStreamSource>(w.profile));
    in.prepass_s = SecondsSince(t0);
    RequestSource& src = *in.owned.back();
    in.generate_ns_per_req = in.prepass_s * 1e9 / static_cast<double>(src.Info().num_requests);
    in.runs.push_back({&src, w, ctx.threads.shard_threads_mt, true});

    // Consecutive slices of the stream, each rebased to start at t = 0.
    src.Reset();
    ReplayBatch chunk;
    size_t pos = 0;
    Trace slice;
    while (in.set.traces.size() < 8 && src.FillNext(&chunk)) {
      for (size_t i = 0; i < chunk.size() && in.set.traces.size() < 8; ++i) {
        if (slice.requests.empty()) {
          pos = 0;
        }
        macaron::Request r;
        r.time = chunk.times[i];
        r.id = chunk.ids[i];
        r.size = chunk.sizes[i];
        r.op = chunk.ops[i];
        slice.requests.push_back(r);
        if (++pos == kSliceRequests) {
          const SimTime base = slice.requests.front().time;
          for (macaron::Request& q : slice.requests) {
            q.time -= base;
          }
          slice.name = std::string(WorkloadName(kind)) + "-slice" +
                       std::to_string(in.set.traces.size());
          in.set.names.push_back(slice.name);
          in.set.identities.push_back(sweep::FingerprintTraceContent(slice));
          in.set.traces.push_back(std::make_shared<const Trace>(std::move(slice)));
          slice = Trace();
        }
      }
    }
    src.Reset();
  }

  // Standalone-component input: an equal prefix of every trace, offset so
  // time never runs backwards across trace boundaries.
  const size_t per_trace = kLayerRequests / std::max<size_t>(in.set.traces.size(), 1);
  SimTime offset = 0;
  for (const auto& t : in.set.traces) {
    const size_t n = std::min(per_trace, t->size());
    SimTime last = offset;
    for (size_t i = 0; i < n; ++i) {
      macaron::Request r = t->requests[i];
      r.time += offset;
      last = r.time;
      in.layer.requests.push_back(r);
      in.hashes.push_back(macaron::Mix64(r.id));
    }
    offset = last + 1;
  }
  in.layer.name = "layer-input";
  return in;
}

// --- Engine layer: trace / sim / counts / tracing overhead ---

enum class PassMode {
  kUntraced,  // plain source, no side channels
  kTraced,    // timed source + metrics registry + decision trace attached
  kSim,       // timed source with decode-ahead off (FillNext gaps = replay)
};

struct EnginePass {
  double wall_s = 0.0;
  double fill_s = 0.0;
  uint64_t requests = 0;
  std::vector<double> gaps_ms;
  std::vector<std::string> serialized;
  std::vector<RunResult> results;
};

EnginePass RunEnginePass(const std::vector<EngineRun>& runs, PassMode mode,
                         obs::MetricsRegistry* registry, obs::DecisionTrace* decisions) {
  EnginePass pass;
  for (const EngineRun& run : runs) {
    StreamWorkload w = run.workload;
    if (mode == PassMode::kTraced) {
      w.config.metrics = registry;
      w.config.decision_trace = decisions;
    }
    const bool decode_ahead = mode == PassMode::kSim ? false : run.decode_ahead;
    TimedSource timed(*run.source);
    RequestSource& src = mode == PassMode::kUntraced ? *run.source : timed;
    const auto t0 = Clock::now();
    RunResult r = RunStream(w, src, run.shard_threads, decode_ahead);
    pass.wall_s += SecondsSince(t0);
    pass.fill_s += timed.fill_seconds();
    pass.requests += run.source->Info().num_requests;
    pass.gaps_ms.insert(pass.gaps_ms.end(), timed.gaps_ms().begin(), timed.gaps_ms().end());
    pass.serialized.push_back(macaron::SerializeRunResult(r));
    pass.results.push_back(std::move(r));
  }
  return pass;
}

void EngineLayer(const Inputs& in, Outcome* out) {
  // Fresh sinks for every traced pass; counts are read from the first.
  std::vector<obs::MetricsRegistry> registries(kOverheadPairs);
  std::vector<obs::DecisionTrace> decision_traces(kOverheadPairs);
  const obs::MetricsRegistry& registry = registries[0];
  std::vector<double> untraced_rate;
  std::vector<double> traced_rate;
  std::vector<std::string> reference;
  EnginePass traced;
  auto check = [&](const EnginePass& p, const char* what) {
    std::vector<std::string> problems;
    for (size_t i = 0; i < p.results.size(); ++i) {
      CheckConservation(p.results[i], in.runs[i].source->Info().stats.num_gets,
                        std::string(what) + " " + in.runs[i].source->Info().name, &problems);
    }
    if (reference.empty()) {
      reference = p.serialized;
    } else if (p.serialized != reference) {
      problems.push_back(std::string(what) + ": serialized results differ from the untraced run");
    }
    out->checks.Run(problems);
  };
  for (int i = 0; i < kOverheadPairs; ++i) {
    const EnginePass u = RunEnginePass(in.runs, PassMode::kUntraced, nullptr, nullptr);
    untraced_rate.push_back(static_cast<double>(u.requests) / u.wall_s);
    check(u, "untraced");
    EnginePass t = RunEnginePass(in.runs, PassMode::kTraced, &registries[i], &decision_traces[i]);
    traced_rate.push_back(static_cast<double>(t.requests) / t.wall_s);
    check(t, "traced");
    if (i == 0) {
      traced = std::move(t);
    }
  }
  const EnginePass sim = RunEnginePass(in.runs, PassMode::kSim, nullptr, nullptr);
  check(sim, "decode-ahead off");

  const double n = static_cast<double>(traced.requests);
  auto& m = out->metrics;
  m.push_back({"trace.fill_ns_per_req", traced.fill_s * 1e9 / n, "ns", kServe1t});
  m.push_back({"trace.fill_busy_share", Ratio(traced.fill_s, traced.wall_s), "ratio", kServe1t});
  m.push_back({"trace.prepass_s", in.prepass_s, "s", kSetupStream});
  m.push_back({"trace.generate_ns_per_req", in.generate_ns_per_req, "ns", kSetupSweep});
  m.push_back({"sim.chunk_ms_p50", Quantile(sim.gaps_ms, 0.5), "ms", kChurnFanout});
  m.push_back({"sim.chunk_ms_p99", Quantile(sim.gaps_ms, 0.99), "ms", kChurnFanout});
  m.push_back({"sim.self_ns_per_req", (sim.wall_s - sim.fill_s) * 1e9 / n, "ns", kChurnFanout});

  auto count = [&](const char* component, const char* name) {
    return static_cast<double>(registry.CounterValue(component, name));
  };
  uint64_t gets = 0, cluster_hits = 0, osc_hits = 0;
  for (const RunResult& r : traced.results) {
    gets += r.gets;
    cluster_hits += r.cluster_hits;
    osc_hits += r.osc_hits;
  }
  m.push_back({"osc.admits", count("osc", "admits"), "count", kCount});
  m.push_back({"osc.evictions", count("osc", "evictions"), "count", kCount});
  m.push_back({"osc.block_flushes", count("osc", "block_flushes"), "count", kCount});
  m.push_back({"osc.gc_blocks", count("osc", "gc_blocks"), "count", kCount});
  m.push_back({"osc.gc_reclaimed_bytes", count("osc", "gc_reclaimed_bytes"), "bytes", kCount});
  m.push_back({"osc.hit_ratio", Ratio(static_cast<double>(osc_hits),
                                      static_cast<double>(gets - cluster_hits)),
               "ratio", kCount});
  m.push_back({"cluster.lookups", count("cluster", "lookups"), "count", kCount});
  m.push_back({"cluster.primed_objects", count("cluster", "primed_objects"), "count", kCount});
  m.push_back({"cluster.hit_ratio", Ratio(count("cluster", "hits"), count("cluster", "lookups")),
               "ratio", kCount});
  m.push_back({"inflight.coalesced", count("inflight", "coalesced"), "count", kCount});
  m.push_back({"minisim.mrc_batches", count("minisim", "mrc_batches"), "count", kCount});
  m.push_back({"minisim.alc_batches", count("minisim", "alc_batches"), "count", kCount});
  m.push_back({"minisim.ttl_batches", count("minisim", "ttl_batches"), "count", kCount});
  m.push_back({"controller.optimizations", count("controller", "optimizations"), "count", kCount});
  m.push_back({"analyzer.sampled_share",
               Ratio(count("minisim", "mrc_batch_requests"), count("analyzer", "requests")),
               "ratio", kCount});

  const double untraced = Median(untraced_rate);
  const double with_tracing = Median(traced_rate);
  m.push_back({"tracing.req_per_s_untraced", untraced, "1/s", kOverhead});
  m.push_back({"tracing.req_per_s_traced", with_tracing, "1/s", kOverhead});
  m.push_back({"tracing.overhead_share", 1.0 - Ratio(with_tracing, untraced), "ratio", kOverhead});

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "engine layer: %zu run(s), %" PRIu64 " requests, %zu chunk gaps, %zu decision "
                "records, osc.hit_ratio base=%" PRIu64 " GETs missing the cluster, "
                "cluster.hit_ratio base=%.0f lookups, sampled_share base=%.0f requests",
                in.runs.size(), traced.requests, sim.gaps_ms.size(), decision_traces[0].size(),
                gets - cluster_hits, count("cluster", "lookups"), count("analyzer", "requests"));
  out->notes.push_back(buf);
}

// --- Controller layer: standalone MacaronController, engine-equivalent ---

// The controller configuration the engine's Setup derives for `cfg` over a
// source with `info` (Macaron / Macaron-TTL). The two engines differ in the
// largest mini-cache and the packing policy: the replay engine sizes it at
// 1.15x the dataset (dataset_bytes_hint if set) and passes its packing
// policy; the event engine sizes it at the unique bytes and keeps the
// analyzer's default policy.
macaron::ControllerConfig ControllerFor(const EngineConfig& cfg, bool event_engine,
                                        const SourceInfo& info,
                                        const macaron::FittedLatencyGenerator& fitted) {
  const macaron::TraceStats& stats = info.stats;
  const uint64_t dataset = cfg.dataset_bytes_hint != 0 ? cfg.dataset_bytes_hint : stats.unique_bytes;
  double sampling_ratio = cfg.sampling_ratio;
  if (stats.unique_objects > 0) {
    sampling_ratio = std::clamp(2000.0 / static_cast<double>(stats.unique_objects),
                                cfg.sampling_ratio, 1.0);
  }
  macaron::ControllerConfig cc;
  cc.window = cfg.window;
  cc.observation = cfg.observation;
  cc.analyzer.sampling_ratio = sampling_ratio;
  cc.analyzer.num_minicaches = cfg.num_minicaches;
  cc.analyzer.min_capacity_bytes = cfg.min_minicache_bytes;
  if (event_engine) {
    cc.analyzer.max_capacity_bytes =
        std::max<uint64_t>(stats.unique_bytes, cfg.min_minicache_bytes * 2);
  } else {
    cc.analyzer.max_capacity_bytes =
        std::max<uint64_t>(static_cast<uint64_t>(static_cast<double>(dataset) * 1.15),
                           cfg.min_minicache_bytes * 2);
    cc.analyzer.policy = cfg.packing.policy;
  }
  cc.analyzer.decay_per_day = cfg.decay_per_day;
  cc.analyzer.seed = cfg.seed ^ 0xc0;
  cc.analyzer.threads = cfg.analyzer_threads;
  cc.packing_enabled = cfg.packing.packing_enabled;
  cc.packing_block_bytes = cfg.packing.block_bytes;
  cc.packing_max_objects = cfg.packing.max_objects_per_block;
  cc.max_cluster_nodes = cfg.max_cluster_nodes;
  cc.cluster_shards = static_cast<size_t>(std::max(cfg.num_shards, 1));
  if (cfg.approach == Approach::kMacaron) {
    cc.enable_cluster = true;
    cc.analyzer.enable_alc = true;
    cc.cluster_latency_target_ms =
        fitted.FittedMeanMs(macaron::DataSource::kOsc, stats.median_object_bytes) * 0.95;
  } else if (cfg.approach == Approach::kMacaronTtl) {
    cc.mode = macaron::OptimizationMode::kTtl;
    cc.analyzer.enable_ttl = true;
    cc.analyzer.max_ttl = std::max<macaron::SimDuration>(info.duration(), macaron::kDay);
  }
  return cc;
}

void ControllerLayer(const Inputs& in, const RunContext& ctx, Outcome* out) {
  double observe_s = 0.0;
  uint64_t observed = 0;
  std::vector<double> reconfigure_ms;
  for (const EngineRun& run : in.runs) {
    const EngineConfig& cfg = run.workload.config;
    const SourceInfo& info = run.source->Info();
    const macaron::GroundTruthLatency truth(cfg.scenario);
    const macaron::FittedLatencyGenerator fitted(truth, 400, cfg.seed ^ 0xfeed);
    // Pool before controller: the banks join in-flight async work on
    // destruction, which needs the pool alive.
    macaron::ThreadPool pool(ctx.threads.nproc);
    macaron::MacaronController controller(
        ControllerFor(cfg, run.workload.event_engine, info, fitted),
        macaron::ScaledInfraPrices(cfg.prices, cfg.infra_scale), &fitted);
    controller.SetExecution(&pool, /*async=*/true);
    auto reconfigure = [&](SimTime t) {
      const auto t0 = Clock::now();
      controller.Reconfigure(t, 0);
      reconfigure_ms.push_back(SecondsSince(t0) * 1e3);
    };

    RequestSource& src = *run.source;
    src.Reset();
    ReplayBatch chunk;
    SimTime next_boundary = cfg.window;
    while (src.FillNext(&chunk)) {
      const size_t n = chunk.size();
      size_t i = 0;
      while (i < n) {
        while (chunk.times[i] >= next_boundary) {
          reconfigure(next_boundary);
          next_boundary += cfg.window;
        }
        size_t j = i;
        while (j < n && chunk.times[j] < next_boundary) {
          ++j;
        }
        const auto t0 = Clock::now();
        controller.ObserveColumns(chunk, i, j);
        observe_s += SecondsSince(t0);
        observed += j - i;
        i = j;
      }
    }
    reconfigure(info.end_time + 1);
    src.Reset();
  }
  auto& m = out->metrics;
  m.push_back({"controller.observe_ns_per_req", observe_s * 1e9 / static_cast<double>(observed),
               "ns", kServe});
  m.push_back({"controller.reconfigure_ms_p50", Quantile(reconfigure_ms, 0.5), "ms", kChurn});
  m.push_back({"controller.reconfigure_ms_p99", Quantile(reconfigure_ms, 0.99), "ms", kChurn});
  out->notes.push_back("controller layer: " + std::to_string(observed) + " requests observed, " +
                       std::to_string(reconfigure_ms.size()) + " reconfigures, pool of " +
                       std::to_string(ctx.threads.nproc) + ", async on");
}

// --- Standalone components: cache, OSC, cluster, cloudsim ---

// Distinct objects of the layer input, first-touch order.
struct Distinct {
  std::vector<size_t> first;  // index into the layer input
  uint64_t bytes = 0;
};

Distinct DistinctObjects(const Trace& t) {
  Distinct d;
  std::unordered_set<ObjectId> seen;
  seen.reserve(t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    if (seen.insert(t.requests[i].id).second) {
      d.first.push_back(i);
      d.bytes += t.requests[i].size;
    }
  }
  return d;
}

// Replays the layer input as the engines serve it: a GET that misses fills
// the cache, a PUT writes, a DELETE erases; `boundary` runs at every
// 15-minute window boundary the stream crosses. Returns the GET hits.
template <typename Get, typename Put, typename Erase, typename Boundary>
uint64_t Serve(const Inputs& in, Get get, Put put, Erase erase, Boundary boundary) {
  uint64_t hits = 0;
  SimTime next_boundary = in.config.window;
  for (size_t i = 0; i < in.layer.size(); ++i) {
    const macaron::Request& r = in.layer.requests[i];
    const uint64_t h = in.hashes[i];
    while (r.time >= next_boundary) {
      boundary();
      next_boundary += in.config.window;
    }
    if (r.op == Op::kGet) {
      if (get(r, h)) {
        ++hits;
      } else {
        put(r, h);
      }
    } else if (r.op == Op::kPut) {
      put(r, h);
    } else {
      erase(r, h);
    }
  }
  return hits;
}

void CacheLayer(const Inputs& in, const Distinct& d, Outcome* out) {
  using macaron::Request;
  const double n = static_cast<double>(in.layer.size());
  macaron::LruCache lru(std::max<uint64_t>(d.bytes / 8, 1));
  auto t0 = Clock::now();
  uint64_t hits = Serve(
      in, [&](const Request& r, uint64_t h) { return lru.GetPrehashed(r.id, h); },
      [&](const Request& r, uint64_t h) { lru.PutPrehashed(r.id, h, r.size); },
      [&](const Request& r, uint64_t h) { lru.ErasePrehashed(r.id, h); }, [] {});
  const double lru_s = SecondsSince(t0);

  macaron::TtlCache ttl(macaron::kHour);
  t0 = Clock::now();
  hits += Serve(
      in, [&](const Request& r, uint64_t h) { return ttl.GetPrehashed(r.id, h, r.time); },
      [&](const Request& r, uint64_t h) { ttl.PutPrehashed(r.id, h, r.size, r.time); },
      [&](const Request& r, uint64_t h) { ttl.ErasePrehashed(r.id, h); }, [] {});
  const double ttl_s = SecondsSince(t0);
  out->metrics.push_back({"cache.lru_ns_per_op", lru_s * 1e9 / n, "ns", kServe});
  out->metrics.push_back({"cache.ttl_ns_per_op", ttl_s * 1e9 / n, "ns", kChurn});
  out->notes.push_back("cache layer: " + std::to_string(in.layer.size()) +
                       " ops, LRU capacity 1/8 of " + std::to_string(d.bytes) +
                       " distinct bytes, TTL 1 h, hits " + std::to_string(hits));
}

void OscLayer(const Inputs& in, const Distinct& d, Outcome* out) {
  using macaron::Request;
  const auto& reqs = in.layer.requests;
  const macaron::PackingConfig& packing = in.config.packing;

  // Admit every distinct object once, look up every GET (all resident),
  // then delete every distinct object.
  macaron::ObjectStorageCache osc(packing);
  auto t0 = Clock::now();
  for (const size_t i : d.first) {
    osc.AdmitPrehashed(reqs[i].id, in.hashes[i], reqs[i].size);
  }
  const double admit_s = SecondsSince(t0);
  uint64_t gets = 0, hits = 0;
  t0 = Clock::now();
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].op == Op::kGet) {
      ++gets;
      hits += osc.LookupPrehashed(reqs[i].id, in.hashes[i]) ? 1 : 0;
    }
  }
  const double lookup_s = SecondsSince(t0);
  t0 = Clock::now();
  for (const size_t i : d.first) {
    osc.DeletePrehashed(reqs[i].id, in.hashes[i]);
  }
  const double delete_s = SecondsSince(t0);

  // Serving replay with the boundary maintenance the controller's capacity
  // decisions trigger: evict to a quarter of the distinct bytes, then
  // collect garbage.
  macaron::ObjectStorageCache served(packing);
  const uint64_t target = std::max<uint64_t>(d.bytes / 4, 1);
  double maint_s = 0.0;
  uint64_t windows = 0;
  auto maintain = [&] {
    const auto m0 = Clock::now();
    served.FlushOpenBlock();
    served.EvictToCapacity(target);
    served.RunGc();
    maint_s += SecondsSince(m0);
    ++windows;
  };
  Serve(
      in, [&](const Request& r, uint64_t h) { return served.LookupPrehashed(r.id, h); },
      [&](const Request& r, uint64_t h) { served.AdmitPrehashed(r.id, h, r.size); },
      [&](const Request& r, uint64_t h) { served.DeletePrehashed(r.id, h); }, maintain);
  maintain();

  const double distinct = static_cast<double>(d.first.size());
  auto& m = out->metrics;
  m.push_back({"osc.lookup_ns", lookup_s * 1e9 / static_cast<double>(std::max<uint64_t>(gets, 1)),
               "ns", kServe});
  m.push_back({"osc.admit_ns", admit_s * 1e9 / distinct, "ns", kServe});
  m.push_back({"osc.delete_ns", delete_s * 1e9 / distinct, "ns", kChurn});
  m.push_back({"osc.maint_us_per_window", maint_s * 1e6 / static_cast<double>(windows), "us",
               kChurn});
  out->notes.push_back("osc layer: " + std::to_string(d.first.size()) + " admits/deletes, " +
                       std::to_string(gets) + " lookups (" + std::to_string(hits) + " hits), " +
                       std::to_string(windows) + " maintenance windows");
}

void ClusterLayer(const Inputs& in, const Distinct& d, Outcome* out) {
  const auto& reqs = in.layer.requests;
  const uint64_t node_bytes =
      macaron::ScaledInfraPrices(in.config.prices, in.config.infra_scale).cache_node_usable_bytes;
  const size_t nodes =
      std::clamp<size_t>(static_cast<size_t>(d.bytes / 4 / std::max<uint64_t>(node_bytes, 1)), 2, 64);
  macaron::CacheCluster cluster(node_bytes);
  cluster.Resize(nodes);
  // Warm-up replay (GET, fill on miss) so the timed probe pass sees the
  // workload's own hit mix.
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].op == Op::kGet && !cluster.GetHashed(reqs[i].id, in.hashes[i])) {
      cluster.PutHashed(reqs[i].id, in.hashes[i], reqs[i].size);
    }
  }
  uint64_t gets = 0, hits = 0;
  const auto t0 = Clock::now();
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].op == Op::kGet) {
      ++gets;
      hits += cluster.GetHashed(reqs[i].id, in.hashes[i]) ? 1 : 0;
    }
  }
  const double get_s = SecondsSince(t0);

  // Scale-out with priming from a populated OSC, as at a boundary that
  // grows the cluster; scale back in between repetitions.
  macaron::ObjectStorageCache osc(in.config.packing);
  for (const size_t i : d.first) {
    osc.AdmitPrehashed(reqs[i].id, in.hashes[i], reqs[i].size);
  }
  std::vector<double> resize_ms;
  uint64_t primed = 0;
  for (int rep = 0; rep < kResizePrimeReps; ++rep) {
    const auto r0 = Clock::now();
    const std::vector<uint32_t> added = cluster.Resize(nodes * 2);
    primed += cluster.Prime(osc, added);
    resize_ms.push_back(SecondsSince(r0) * 1e3);
    cluster.Resize(nodes);
  }
  out->metrics.push_back({"cluster.get_ns",
                          get_s * 1e9 / static_cast<double>(std::max<uint64_t>(gets, 1)), "ns",
                          kServe});
  out->metrics.push_back({"cluster.resize_prime_ms", Median(resize_ms), "ms", kServe});
  out->notes.push_back("cluster layer: " + std::to_string(nodes) + " nodes, " +
                       std::to_string(gets) + " gets (" + std::to_string(hits) + " hits), " +
                       std::to_string(primed) + " objects primed over " +
                       std::to_string(kResizePrimeReps) + " scale-outs to " +
                       std::to_string(nodes * 2));
}

void CloudsimLayer(const Inputs& in, const RunContext& ctx, Outcome* out) {
  const macaron::GroundTruthLatency truth(in.config.scenario);
  // Fresh seeds: the fit table is memoized per (scenario, samples, seed),
  // so only an unseen seed measures the fit itself.
  std::vector<double> fit_s;
  for (int rep = 0; rep < kFitReps; ++rep) {
    const auto t0 = Clock::now();
    const macaron::FittedLatencyGenerator fresh(truth, 400,
                                                macaron::Mix64(ctx.seed * 31 + 0xf17 + rep));
    fit_s.push_back(SecondsSince(t0));
  }
  const macaron::FittedLatencyGenerator fitted(truth, 400, in.config.seed ^ 0xfeed);
  macaron::Rng rng(ctx.seed);
  constexpr macaron::DataSource kSources[] = {macaron::DataSource::kCacheCluster,
                                              macaron::DataSource::kOsc,
                                              macaron::DataSource::kRemoteLake};
  double sink = 0.0;
  uint64_t samples = 0;
  const auto t0 = Clock::now();
  for (const macaron::Request& r : in.layer.requests) {
    if (r.op == Op::kGet) {
      sink += fitted.SampleMs(kSources[samples % 3], r.size, rng);
      ++samples;
    }
  }
  const double sample_s = SecondsSince(t0);
  out->metrics.push_back({"cloudsim.sample_ns",
                          sample_s * 1e9 / static_cast<double>(std::max<uint64_t>(samples, 1)),
                          "ns", kServe});
  out->metrics.push_back({"cloudsim.fit_s", Median(fit_s), "s", kSetupSweep});
  char buf[160];
  std::snprintf(buf, sizeof(buf), "cloudsim layer: %" PRIu64 " samples, mean %.3f ms", samples,
                sink / static_cast<double>(std::max<uint64_t>(samples, 1)));
  out->notes.push_back(buf);
}

// --- Oracle and sweep layers, over the trace set ---

void OracleLayer(const Inputs& in, const RunContext& ctx, Outcome* out) {
  macaron::PriceBook opfree = in.config.prices;
  opfree.get_per_request = 0.0;
  opfree.put_per_request = 0.0;
  macaron::ExactOracleOptions options;
  options.window = in.config.window;
  options.seed = ctx.seed;
  double exact_s = 0.0, oracular_s = 0.0;
  for (const auto& t : in.set.traces) {
    auto t0 = Clock::now();
    const macaron::ExactOracleResult exact = macaron::RunExactOracle(*t, opfree, options);
    exact_s += SecondsSince(t0);
    t0 = Clock::now();
    const macaron::OracularResult oracular =
        macaron::RunOracular(*t, in.config.prices, nullptr, ctx.seed);
    oracular_s += SecondsSince(t0);
    std::vector<std::string> problems;
    if (exact.costs.Total() > oracular.costs.Total() * (1 + 1e-9) + 1e-9) {
      problems.push_back(t->name + ": exact oracle above Oracular");
    }
    out->checks.Run(problems);
  }
  const double n = static_cast<double>(in.set.total_requests());
  out->metrics.push_back({"oracle.exact_ns_per_req", exact_s * 1e9 / n, "ns", kSweep});
  out->metrics.push_back({"oracle.oracular_ns_per_req", oracular_s * 1e9 / n, "ns", kSweep});
}

void SweepLayer(const Inputs& in, const RunContext& ctx, Outcome* out) {
  double fingerprint_s = 0.0;
  for (const auto& t : in.set.traces) {
    const auto t0 = Clock::now();
    const sweep::Fingerprint fp = sweep::FingerprintTraceContent(*t);
    fingerprint_s += SecondsSince(t0);
    if (fp.IsZero()) {
      out->checks.Run({t->name + ": zero content fingerprint"});
    }
  }

  const std::vector<sweep::SweepJobSpec> jobs = SweepJobs(in.set, ctx.seed);
  const std::string dir = FreshDir(ctx, "traced-sweep");
  const SweepPass cold = RunSweep(jobs, ctx.threads.sweep_threads, dir);
  const SweepPass warm = RunSweep(jobs, ctx.threads.sweep_threads, dir);
  std::filesystem::remove_all(dir);
  std::vector<std::string> problems;
  if (warm.serialized != cold.serialized) {
    problems.push_back("traced sweep: warm results differ from cold results");
  }
  if (warm.stats.store_hits != jobs.size()) {
    problems.push_back("traced sweep: warm pass missed the store");
  }
  CheckOracleOrdering(in.set, cold, &problems);
  out->checks.Run(problems);

  // Store writes of the cold results into a second, empty store.
  const std::string write_dir = FreshDir(ctx, "traced-store");
  std::vector<double> write_us;
  {
    sweep::ResultStore store(write_dir);
    for (size_t j = 0; j < jobs.size(); ++j) {
      const std::string key =
          sweep::JobFingerprint(jobs[j].trace_identity,
                                sweep::FingerprintEngineConfig(jobs[j].config),
                                static_cast<int>(jobs[j].engine))
              .Hex();
      const auto t0 = Clock::now();
      store.Store(key, cold.results[j]);
      write_us.push_back(SecondsSince(t0) * 1e6);
    }
  }
  std::filesystem::remove_all(write_dir);

  std::vector<double> load_us;
  for (const double s : warm.job_seconds) {
    load_us.push_back(s * 1e6);
  }
  const int tail = TailPercentile(cold.job_seconds.size(), 10);
  const double threads = static_cast<double>(ctx.threads.sweep_threads);
  auto& m = out->metrics;
  m.push_back({"sweep.fingerprint_ns_per_req",
               fingerprint_s * 1e9 / static_cast<double>(in.set.total_requests()), "ns", kSweep});
  m.push_back({"sweep.store_write_us", Median(write_us), "us", kSweep});
  m.push_back({"sweep.store_load_us", Median(load_us), "us", kSweep});
  m.push_back({"sweep.job_s_p50", Quantile(cold.job_seconds, 0.5), "s", kSweep});
  m.push_back({"sweep.job_s_tail", Quantile(cold.job_seconds, tail / 100.0), "s", kSweep});
  m.push_back({"sweep.busy_share", Ratio(cold.stats.busy_seconds, cold.wall_seconds * threads),
               "ratio", kSweep});
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "sweep layer: %zu jobs over %zu traces (%" PRIu64 " requests), %d threads, "
                "job_s_tail = p%d (>= 10 jobs beyond it), cold %.3f s, warm %.3f s",
                jobs.size(), in.set.traces.size(), cold.requests, ctx.threads.sweep_threads, tail,
                cold.wall_seconds, warm.wall_seconds);
  out->notes.push_back(buf);
}

}  // namespace

Outcome RunTraced(WorkloadKind kind, const RunContext& ctx) {
  Outcome out;
  const Inputs in = MakeInputs(kind, ctx);
  EngineLayer(in, &out);
  ControllerLayer(in, ctx, &out);
  const Distinct distinct = DistinctObjects(in.layer);
  CacheLayer(in, distinct, &out);
  OscLayer(in, distinct, &out);
  ClusterLayer(in, distinct, &out);
  CloudsimLayer(in, ctx, &out);
  OracleLayer(in, ctx, &out);
  SweepLayer(in, ctx, &out);
  return out;
}

}  // namespace replaybench
