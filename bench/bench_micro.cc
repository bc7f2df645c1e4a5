// Microbenchmarks (google-benchmark): throughput of the building blocks the
// controller leans on — LRU/TTL cache ops, Zipf sampling, spatial sampling,
// the mini-cache bank, consistent-hash routing, OSC packing, the latency
// generator, and the thread pool's fork-join.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/cache/flat_index.h"
#include "src/cache/lru_cache.h"
#include "tests/reference_caches.h"
#include "src/cache/simd.h"
#include "src/cache/slab_lru.h"
#include "src/cache/ttl_cache.h"
#include "src/common/hash.h"
#include "src/cloudsim/latency.h"
#include "src/cluster/hash_ring.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/zipf.h"
#include "src/controller/analyzer.h"
#include "src/minisim/alc_bank.h"
#include "src/minisim/mrc_bank.h"
#include "src/minisim/size_grid.h"
#include "src/minisim/ttl_bank.h"
#include "src/osc/osc.h"
#include "src/sim/engine_config.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/sweep/fingerprint.h"
#include "src/sweep/result_store.h"
#include "src/sweep/scheduler.h"
#include "src/trace/columnar_io.h"
#include "src/trace/request_source.h"
#include "src/trace/sampler.h"
#include "src/trace/splitter.h"
#include "src/trace/stream_source.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

void BM_LruCacheGetPut(benchmark::State& state) {
  LruCache cache(64 * 1024 * 1024);
  Rng rng(1);
  ZipfSampler zipf(100000, 0.8);
  for (auto _ : state) {
    const ObjectId id = zipf.Sample(rng);
    if (!cache.Get(id)) {
      cache.Put(id, 4096);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheGetPut);

void BM_TtlCacheGetPut(benchmark::State& state) {
  TtlCache cache(3600 * 1000);
  Rng rng(2);
  ZipfSampler zipf(100000, 0.8);
  SimTime now = 0;
  for (auto _ : state) {
    const ObjectId id = zipf.Sample(rng);
    now += 10;
    if (!cache.Get(id, now)) {
      cache.Put(id, 4096, now);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TtlCacheGetPut);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(3);
  ZipfSampler zipf(static_cast<uint64_t>(state.range(0)), 0.6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(1000000);

void BM_SpatialSampler(benchmark::State& state) {
  const SpatialSampler sampler(0.05, 42);
  ObjectId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Admit(id++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpatialSampler);

void BM_MrcBankProcess(benchmark::State& state) {
  MrcBank bank(UniformSizeGrid(50'000'000, 5'000'000'000, static_cast<int>(state.range(0))),
               0.05, 7);
  Rng rng(4);
  ZipfSampler zipf(500000, 0.6);
  SimTime t = 0;
  for (auto _ : state) {
    bank.Process({t++, zipf.Sample(rng), 100000, Op::kGet});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MrcBankProcess)->Arg(48)->Arg(200);

// --- Cache core throughput ---
//
// The BM_CacheCore* group isolates the cache data structures from request
// generation: the Zipf stream is precomputed once and replayed from a flat
// array, so the loop body is Get + (on miss) Put and nothing else. The
// *SeedReference variants run the identical loop against the seed's
// list+unordered_map implementation (tests/reference_caches.h), so one
// binary reports the flat-core speedup on the same stream. Capacity selects
// the hit ratio: the stream draws from 100k objects of 4 KB (~410 MB of
// distinct data), so 8 MB is miss-heavy and 256 MB hit-heavy; the realized
// ratio is reported as a counter.

const std::vector<ObjectId>& CacheCoreStream() {
  static const std::vector<ObjectId>* stream = [] {
    auto* s = new std::vector<ObjectId>(1 << 22);
    Rng rng(11);
    ZipfSampler zipf(100000, 0.8);
    for (ObjectId& id : *s) {
      id = zipf.Sample(rng);
    }
    return s;
  }();
  return *stream;
}

template <typename Cache>
void RunCacheCoreGetPut(benchmark::State& state, Cache& cache) {
  const std::vector<ObjectId>& stream = CacheCoreStream();
  const size_t mask = stream.size() - 1;
  size_t i = 0;
  uint64_t hits = 0;
  for (auto _ : state) {
    const ObjectId id = stream[i++ & mask];
    if (cache.Get(id)) {
      ++hits;
    } else {
      cache.Put(id, 4096);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_ratio"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(state.iterations());
}

void BM_CacheCoreGetPut(benchmark::State& state) {
  LruCache cache(static_cast<uint64_t>(state.range(0)) * 1024 * 1024);
  RunCacheCoreGetPut(state, cache);
}
BENCHMARK(BM_CacheCoreGetPut)->Arg(8)->Arg(64)->Arg(256);

void BM_CacheCoreGetPutSeedReference(benchmark::State& state) {
  RefLruCache cache(static_cast<uint64_t>(state.range(0)) * 1024 * 1024);
  RunCacheCoreGetPut(state, cache);
}
BENCHMARK(BM_CacheCoreGetPutSeedReference)->Arg(8)->Arg(64)->Arg(256);

// --- FlatIndex probe micro-costs ---
//
// Isolates the index from the cache around it: no recency list, no slab
// churn in the probe loops, just the tag-group scan (or its scalar
// fallback — the report's "macaron_simd" context records which one this
// binary compiled). Hit/Miss replay precomputed (id, hash) columns against
// a table of 64k entries; EvictErase runs the eviction pattern — erase the
// oldest entry through its slab backlink (backward-shift deletion), then
// insert a fresh key — at a steady 64k population.

constexpr size_t kProbeTableKeys = 1 << 16;

struct ProbeStream {
  std::vector<ObjectId> ids;
  std::vector<uint64_t> hashes;
};

// 2^20 probes drawn uniformly from [base, base + kProbeTableKeys).
ProbeStream MakeProbeStream(ObjectId base) {
  ProbeStream stream;
  Rng rng(17 + base);
  stream.ids.resize(1 << 20);
  stream.hashes.resize(1 << 20);
  for (size_t k = 0; k < stream.ids.size(); ++k) {
    const ObjectId id = base + rng.NextU64() % kProbeTableKeys;
    stream.ids[k] = id;
    stream.hashes[k] = Mix64(id);
  }
  return stream;
}

FlatIndex MakeProbeTable() {
  FlatIndex index;
  index.Reserve(kProbeTableKeys);
  for (ObjectId id = 0; id < kProbeTableKeys; ++id) {
    index.EmplacePrehashed(id, Mix64(id), static_cast<uint32_t>(id));
  }
  return index;
}

void RunFlatIndexProbe(benchmark::State& state, const FlatIndex& index,
                       const ProbeStream& stream) {
  const size_t mask = stream.ids.size() - 1;
  size_t i = 0;
  uint64_t found = 0;
  for (auto _ : state) {
    const size_t k = i++ & mask;
    found += index.FindPrehashed(stream.ids[k], stream.hashes[k]) != FlatIndex::kEmpty;
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations());
}

void BM_FlatIndexProbeHit(benchmark::State& state) {
  static const ProbeStream* stream = new ProbeStream(MakeProbeStream(0));  // all present
  const FlatIndex index = MakeProbeTable();
  RunFlatIndexProbe(state, index, *stream);
}
BENCHMARK(BM_FlatIndexProbeHit);

void BM_FlatIndexProbeMiss(benchmark::State& state) {
  static const ProbeStream* stream =
      new ProbeStream(MakeProbeStream(kProbeTableKeys));  // all absent
  const FlatIndex index = MakeProbeTable();
  RunFlatIndexProbe(state, index, *stream);
}
BENCHMARK(BM_FlatIndexProbeMiss);

void BM_FlatIndexProbeEvictErase(benchmark::State& state) {
  NodeSlab slab;
  FlatIndex index;
  index.Reserve(kProbeTableKeys);
  std::vector<uint32_t> ring(kProbeTableKeys);  // slab slot of each live key
  ObjectId next = 0;
  for (; next < kProbeTableKeys; ++next) {
    const uint64_t h = Mix64(next);
    const uint32_t slot = slab.Allocate(next, 1, 0, static_cast<uint32_t>(h));
    index.EmplacePrehashed(next, h, slot, &slab);
    ring[next] = slot;
  }
  for (auto _ : state) {
    // One eviction + one admission, as the policies' miss paths do it: the
    // victim is already known (here via the ring, there via the recency
    // list), so the erase is backlink-direct with zero probing.
    const size_t pos = next % kProbeTableKeys;
    index.EraseCell(slab.node(ring[pos]).cell, &slab);
    slab.Free(ring[pos]);
    const uint64_t h = Mix64(next);
    const uint32_t slot = slab.Allocate(next, 1, 0, static_cast<uint32_t>(h));
    index.EmplacePrehashed(next, h, slot, &slab);
    ring[pos] = slot;
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatIndexProbeEvictErase);

// One iteration = one full analysis window replayed through a mini-cache
// bank (sequential, grid of state.range(0) points) from a precomputed
// request stream. After the first window the slabs are at steady state, so
// this measures the allocation-free replay path end to end.
void BM_CacheCoreBankWindowReplay(benchmark::State& state) {
  static const std::vector<Request>* window = [] {
    auto* reqs = new std::vector<Request>();
    reqs->reserve(1 << 18);
    Rng rng(12);
    ZipfSampler zipf(500000, 0.6);
    for (size_t i = 0; i < (1 << 18); ++i) {
      reqs->push_back({static_cast<SimTime>(i), zipf.Sample(rng), 100000, Op::kGet});
    }
    return reqs;
  }();
  MrcBank bank(UniformSizeGrid(50'000'000, 5'000'000'000, static_cast<int>(state.range(0))),
               0.05, 7);
  for (auto _ : state) {
    for (const Request& r : *window) {
      bank.Process(r);
    }
    bank.EndWindow();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(window->size()));
  state.counters["allocated_nodes"] = static_cast<double>(bank.allocated_nodes());
}
BENCHMARK(BM_CacheCoreBankWindowReplay)->Arg(48)->Unit(benchmark::kMillisecond);

// --- Per-stage mini-sim window replay (the hash-once hot path) ---
//
// One iteration = one full analysis window through a bank: sampler
// admission (hash once), SoA batch buffering, and the policy-templated
// ReplayMiniSim kernel across every grid point. The BM_MiniSimWindow* group
// measures each bank's end-to-end window cost; the per-policy MRC variants
// show each policy's devirtualized kernel.

const std::vector<Request>& MiniSimWindowStream() {
  static const std::vector<Request>* window = [] {
    auto* reqs = new std::vector<Request>();
    reqs->reserve(1 << 17);
    Rng rng(13);
    ZipfSampler zipf(300000, 0.7);
    for (size_t i = 0; i < (1 << 17); ++i) {
      reqs->push_back({static_cast<SimTime>(i * 8), zipf.Sample(rng), 100000, Op::kGet});
    }
    return reqs;
  }();
  return *window;
}

void BM_MiniSimWindowMrc(benchmark::State& state) {
  const auto kind = static_cast<EvictionPolicyKind>(state.range(0));
  MrcBank bank(UniformSizeGrid(50'000'000, 5'000'000'000, 48), 0.05, 7, kind);
  for (auto _ : state) {
    for (const Request& r : MiniSimWindowStream()) {
      bank.Process(r);
    }
    bank.EndWindow();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(MiniSimWindowStream().size()));
  state.SetLabel(EvictionPolicyName(kind));
}
BENCHMARK(BM_MiniSimWindowMrc)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

// The same LRU window with the bank's grid replay fanned across a 4-worker
// pool (the local analogue of the paper's serverless fan-out, §6.3). Wall
// time: the work runs on the pool's threads. On one core it measures only
// the fan-out overhead; the curves' bit-identity to the sequential bank is
// ParallelDeterminismTest.MrcBankBitIdenticalToSequential.
void BM_MiniSimWindowMrcPooled(benchmark::State& state) {
  MrcBank bank(UniformSizeGrid(50'000'000, 5'000'000'000, 48), 0.05, 7);
  ThreadPool pool(4);
  bank.set_thread_pool(&pool);
  for (auto _ : state) {
    for (const Request& r : MiniSimWindowStream()) {
      bank.Process(r);
    }
    bank.EndWindow();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(MiniSimWindowStream().size()));
}
BENCHMARK(BM_MiniSimWindowMrcPooled)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_MiniSimWindowTtl(benchmark::State& state) {
  TtlBank bank(StandardTtlGrid(7 * kDay), 0.05, 7);
  for (auto _ : state) {
    for (const Request& r : MiniSimWindowStream()) {
      bank.Process(r);
    }
    bank.EndWindow(15 * kMinute);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(MiniSimWindowStream().size()));
}
BENCHMARK(BM_MiniSimWindowTtl)->Unit(benchmark::kMillisecond);

// --- Columnar observe path (the engines' ObserveColumns hot path) ---
//
// One iteration = one full analysis window through a three-bank analyzer
// (MRC + ALC + TTL), fed the way the engines feed it: SoA chunks with
// ingest-domain hashes. Arg 0 replays the chunks per row through
// Observe/Process (the old critical path); Arg 1 feeds whole chunks through
// ProcessColumns (salted rehash + branch-free compaction + bulk append).
// The spread is what the columnar observe path saves per request.
void BM_ObserveColumns(benchmark::State& state) {
  const bool columnar = state.range(0) != 0;
  static const std::vector<ReplayBatch>* chunks = [] {
    auto* c = new std::vector<ReplayBatch>();
    Rng rng(14);
    ZipfSampler zipf(300000, 0.7);
    constexpr size_t kChunk = 4096;
    constexpr size_t kTotal = 1 << 17;
    SimTime t = 0;
    for (size_t done = 0; done < kTotal; done += kChunk) {
      ReplayBatch chunk;
      chunk.Reserve(kChunk);
      for (size_t i = 0; i < kChunk; ++i) {
        const ObjectId id = zipf.Sample(rng);
        Op op = Op::kGet;
        if (i % 16 == 7) {
          op = Op::kPut;
        }
        chunk.Append(id, Mix64(id), 100000, op, t += 8);
      }
      c->push_back(std::move(chunk));
    }
    return c;
  }();
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 9);
  AnalyzerConfig cfg;
  cfg.sampling_ratio = 0.05;
  cfg.num_minicaches = 24;
  cfg.min_capacity_bytes = 50'000'000;
  cfg.max_capacity_bytes = 5'000'000'000;
  cfg.enable_alc = true;
  cfg.enable_ttl = true;
  cfg.max_ttl = 7 * kDay;
  WorkloadAnalyzer analyzer(cfg, &gen);
  int64_t requests = 0;
  for (auto _ : state) {
    for (const ReplayBatch& chunk : *chunks) {
      if (columnar) {
        analyzer.ProcessColumns(chunk, 0, chunk.size());
      } else {
        for (size_t i = 0; i < chunk.size(); ++i) {
          analyzer.Process(chunk.RowAt(i));
        }
      }
      requests += static_cast<int64_t>(chunk.size());
    }
    analyzer.EndWindow(15 * kMinute);
  }
  state.SetItemsProcessed(requests);
  state.SetLabel(columnar ? "columns" : "per_row");
}
BENCHMARK(BM_ObserveColumns)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MiniSimWindowAlc(benchmark::State& state) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 9);
  const auto grid = UniformSizeGrid(50'000'000, 5'000'000'000, 48);
  AlcBank bank(grid, /*osc_capacity=*/grid.back(), 0.05, 7, &gen, 15);
  for (auto _ : state) {
    for (const Request& r : MiniSimWindowStream()) {
      bank.Process(r);
    }
    bank.EndWindow();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(MiniSimWindowStream().size()));
}
BENCHMARK(BM_MiniSimWindowAlc)->Unit(benchmark::kMillisecond);

// --- Full-engine replay (hash once at ingest, prehashed all the way down) ---
//
// One iteration = a complete small-workload simulation: trace replay
// through cluster routing, OSC, TTL shadow, and the per-window analyzer.
// The trace is generated once; both engines consume the identical stream.

const Trace& EngineReplayTrace() {
  static const Trace* trace = [] {
    WorkloadProfile p;
    p.name = "bm_engine";
    p.seed = 77;
    p.duration = 2 * kDay;
    p.dataset_bytes = 200ull * 1000 * 1000;
    p.mean_object_bytes = 500ull * 1000;
    p.get_bytes = 1200ull * 1000 * 1000;
    p.zipf_alpha = 0.8;
    return new Trace(SplitObjects(GenerateTrace(p), p.max_object_bytes));
  }();
  return *trace;
}

EngineConfig EngineReplayConfig(Approach a) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  cfg.num_minicaches = 24;
  return cfg;
}

void BM_EngineReplayMacaron(benchmark::State& state) {
  const EngineConfig cfg = EngineReplayConfig(Approach::kMacaronNoCluster);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayEngine(cfg).Run(EngineReplayTrace()).costs.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(EngineReplayTrace().requests.size()));
}
BENCHMARK(BM_EngineReplayMacaron)->Unit(benchmark::kMillisecond);

void BM_EngineReplayCluster(benchmark::State& state) {
  const EngineConfig cfg = EngineReplayConfig(Approach::kMacaron);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayEngine(cfg).Run(EngineReplayTrace()).costs.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(EngineReplayTrace().requests.size()));
}
BENCHMARK(BM_EngineReplayCluster)->Unit(benchmark::kMillisecond);

void BM_EngineReplayEvent(benchmark::State& state) {
  const EngineConfig cfg = EngineReplayConfig(Approach::kMacaronNoCluster);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EventEngine(cfg).Run(EngineReplayTrace()).costs.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(EngineReplayTrace().requests.size()));
}
BENCHMARK(BM_EngineReplayEvent)->Unit(benchmark::kMillisecond);

// The sharded serving engine at 8 shards, swept over worker-thread count
// (Arg = shard_threads). Thread count never changes any output bit, so the
// spread across args is pure execution cost: threads=1 measures the sharding
// overhead vs BM_EngineReplay*, higher args measure parallel speedup on
// machines that have the cores for it.
void BM_ShardedReplayMacaron(benchmark::State& state) {
  EngineConfig cfg = EngineReplayConfig(Approach::kMacaronNoCluster);
  cfg.num_shards = 8;
  cfg.shard_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayEngine(cfg).Run(EngineReplayTrace()).costs.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(EngineReplayTrace().requests.size()));
}
BENCHMARK(BM_ShardedReplayMacaron)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_ShardedReplayCluster(benchmark::State& state) {
  EngineConfig cfg = EngineReplayConfig(Approach::kMacaron);
  cfg.num_shards = 8;
  cfg.shard_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayEngine(cfg).Run(EngineReplayTrace()).costs.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(EngineReplayTrace().requests.size()));
}
BENCHMARK(BM_ShardedReplayCluster)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_ShardedReplayEvent(benchmark::State& state) {
  EngineConfig cfg = EngineReplayConfig(Approach::kMacaronNoCluster);
  cfg.num_shards = 8;
  cfg.shard_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EventEngine(cfg).Run(EngineReplayTrace()).costs.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(EngineReplayTrace().requests.size()));
}
BENCHMARK(BM_ShardedReplayEvent)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// One fork-join on a 2-worker pool over n = 4 indices (a window boundary's
// per-shard fan-out at num_shards = 4). Arg = per-index busy work in µs: 0
// measures the fan-out alone, 20 a boundary phase's typical share. CPU time
// is the whole process's, so worker wake-ups and idle spins count too.
void BM_ForkJoin(benchmark::State& state) {
  ThreadPool pool(2);
  const auto busy = std::chrono::microseconds(state.range(0));
  auto body = [busy](size_t) {
    const auto until = std::chrono::steady_clock::now() + busy;
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  for (auto _ : state) {
    pool.ParallelFor(4, body);
  }
}
BENCHMARK(BM_ForkJoin)->Arg(0)->Arg(20)->MeasureProcessCPUTime()->Unit(benchmark::kMicrosecond);

// --- Out-of-core trace pipeline ---
//
// The BM_TraceStream* group measures the streaming delivery path on the
// same workload as BM_EngineReplay*: columnar encode/decode cost in
// isolation (round trip, cursor drain) and what decode-ahead overlap buys
// when an engine is on the other end of the cursor.

// The engine-replay trace, captured once as an MCTC file in TempDir-less
// /tmp (benchmarks run outside gtest). The file outlives the process; its
// size is a few MB.
const std::string& EngineReplayColumnarPath() {
  static const std::string* path = [] {
    auto* p = new std::string("/tmp/macaron-bm-engine.mctc");
    std::string error;
    if (!WriteTraceColumnar(EngineReplayTrace(), *p, &error)) {
      std::fprintf(stderr, "bench_micro: columnar capture failed: %s\n", error.c_str());
      std::abort();
    }
    return p;
  }();
  return *path;
}

// One iteration = write the trace as MCTC and materialize it back:
// per-column delta+varint encode, per-chunk FNV, footer build, then the
// full decode + verify path. Items = requests through the codec (both
// directions count once).
void BM_ColumnarRoundTrip(benchmark::State& state) {
  const Trace& t = EngineReplayTrace();
  const std::string path = "/tmp/macaron-bm-roundtrip.mctc";
  for (auto _ : state) {
    std::string error;
    if (!WriteTraceColumnar(t, path, &error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    Trace back;
    if (!ReadTraceColumnar(path, &back, &error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    benchmark::DoNotOptimize(back.requests.data());
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(t.requests.size()));
}
BENCHMARK(BM_ColumnarRoundTrip)->Unit(benchmark::kMillisecond);

// Pure decode throughput: drain a source through the ChunkCursor with no
// engine attached (decode-ahead off — this measures the decode itself, not
// the overlap). Arg 0 reads the MCTC file (varint decode + checksum +
// prehash); Arg 1 generates the synthetic stream (sampler + lognormal +
// prehash). Items = requests decoded.
void BM_TraceStreamDecode(benchmark::State& state) {
  const bool synthetic = state.range(0) != 0;
  std::unique_ptr<RequestSource> source;
  if (synthetic) {
    StreamProfile p;
    p.name = "bm_stream";
    p.num_requests = EngineReplayTrace().requests.size();
    p.population = 1ull << 16;
    p.zipf_alpha = 0.8;
    p.duration = 2 * kDay;
    p.mean_object_bytes = 500ull * 1000;
    p.seed = 21;
    source = std::make_unique<SyntheticStreamSource>(p);
  } else {
    std::string error;
    source = ColumnarTraceSource::Open(EngineReplayColumnarPath(), &error);
    if (!source) {
      state.SkipWithError(error.c_str());
      return;
    }
  }
  int64_t requests = 0;
  for (auto _ : state) {
    ChunkCursor cursor(*source, /*decode_ahead=*/false);
    uint64_t sum = 0;
    while (const ReplayBatch* chunk = cursor.Next()) {
      requests += static_cast<int64_t>(chunk->size());
      sum += chunk->hashes.empty() ? 0 : chunk->hashes.back();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(requests);
  state.SetLabel(synthetic ? "synthetic" : "columnar_file");
}
BENCHMARK(BM_TraceStreamDecode)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Stream set-up cost. One iteration constructs a serve_dense-shaped
// SyntheticStreamSource: 2*10^6 requests over 2 days, 2^17 objects with
// lognormal sizes, Zipf 0.9, 10% PUTs — the exact-statistics pre-pass every
// engine run on a stream pays before its first request. Counters: fill_s is
// one untimed FillNext pass over the same stream (generation + prehash),
// and setup_over_fill is the pre-pass in units of that pass.
void BM_StreamSourceSetup(benchmark::State& state) {
  StreamProfile p;
  p.name = "bm_setup";
  p.num_requests = 2'000'000;
  p.population = 1ull << 17;
  p.zipf_alpha = 0.9;
  p.duration = 2 * kDay;
  p.mean_object_bytes = 1ull << 20;
  p.put_fraction = 0.1;
  p.seed = 1;
  std::unique_ptr<SyntheticStreamSource> source;
  double setup_s = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    source = std::make_unique<SyntheticStreamSource>(p);
    setup_s += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    benchmark::DoNotOptimize(source->Info().stats.unique_objects);
  }
  const auto t0 = std::chrono::steady_clock::now();
  ReplayBatch chunk;
  uint64_t sum = 0;
  while (source->FillNext(&chunk)) {
    sum += chunk.hashes.back();
  }
  benchmark::DoNotOptimize(sum);
  const double fill_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  state.counters["fill_s"] = fill_s;
  state.counters["setup_over_fill"] = setup_s / static_cast<double>(state.iterations()) / fill_s;
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(p.num_requests));
}
BENCHMARK(BM_StreamSourceSetup)->Unit(benchmark::kMillisecond);

// End-to-end streamed replay from the columnar file, decode-ahead off
// (Arg 0) vs on (Arg 1). The spread is what overlapping chunk N+1's decode
// with chunk N's replay buys; compare against BM_EngineReplayMacaron for
// the cost of streaming delivery vs the materialized `const Trace&` path
// (same workload, same config).
void BM_TraceStreamReplayOverlap(benchmark::State& state) {
  const EngineConfig base = EngineReplayConfig(Approach::kMacaronNoCluster);
  std::string error;
  const auto source = ColumnarTraceSource::Open(EngineReplayColumnarPath(), &error);
  if (!source) {
    state.SkipWithError(error.c_str());
    return;
  }
  EngineConfig cfg = base;
  cfg.stream_decode_ahead = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayEngine(cfg).Run(*source).costs.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(EngineReplayTrace().requests.size()));
}
BENCHMARK(BM_TraceStreamReplayOverlap)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_HashRingRoute(benchmark::State& state) {
  HashRing ring;
  for (uint32_t n = 1; n <= 16; ++n) {
    ring.AddNode(n);
  }
  ObjectId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.Route(id++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashRingRoute);

void BM_OscAdmitEvict(benchmark::State& state) {
  PackingConfig cfg;
  ObjectStorageCache osc(cfg);
  Rng rng(5);
  ZipfSampler zipf(200000, 0.5);
  uint64_t i = 0;
  for (auto _ : state) {
    osc.Admit(zipf.Sample(rng), 100000);
    if (++i % 4096 == 0) {
      osc.EvictToCapacity(2'000'000'000);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OscAdmitEvict);

void BM_LatencySample(benchmark::State& state) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 400, 6);
  Rng rng(7);
  uint64_t size = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.SampleMs(DataSource::kRemoteLake, size, rng));
    size = (size * 7) % 4'000'000 + 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencySample);

// --- Sweep scheduler building blocks ---

void BM_SweepFingerprintConfig(benchmark::State& state) {
  EngineConfig cfg;
  cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  uint64_t seed = 0;
  for (auto _ : state) {
    cfg.seed = ++seed;  // defeat caching; real sweeps fingerprint varied configs
    benchmark::DoNotOptimize(sweep::FingerprintEngineConfig(cfg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepFingerprintConfig);

void BM_SweepFingerprintTrace(benchmark::State& state) {
  Trace t;
  t.name = "bm";
  for (int i = 0; i < 100000; ++i) {
    t.requests.push_back(Request{i * 100, static_cast<ObjectId>(i * 31), 4096, Op::kGet});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep::FingerprintTraceContent(t));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(t.requests.size()));
}
BENCHMARK(BM_SweepFingerprintTrace);

void BM_SweepResultStoreRoundTrip(benchmark::State& state) {
  const std::string dir = "/tmp/macaron-bm-store";
  sweep::ResultStore store(dir);
  RunResult r;
  r.trace_name = "bm";
  r.approach_name = "macaron";
  for (int i = 0; i < 1000; ++i) {
    r.latency_ms.Add(static_cast<double>(i % 97));
    r.osc_capacity_timeline.emplace_back(i * 1000, 1000000 + i);
  }
  uint64_t key = 0;
  for (auto _ : state) {
    // Rotate through a bounded key set so the directory stays small.
    const std::string hex = sweep::Fingerprint{key % 256, ~(key % 256)}.Hex();
    ++key;
    store.Store(hex, r);
    RunResult back;
    benchmark::DoNotOptimize(store.Load(hex, &back));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepResultStoreRoundTrip)->Unit(benchmark::kMicrosecond);

// Dispatch overhead of the scheduler itself: tiny one-request jobs, unique
// seeds so nothing deduplicates. Measures submit + execute + collect, not
// simulation (the trace has one request).
void BM_SweepSchedulerDispatch(benchmark::State& state) {
  auto trace = std::make_shared<const Trace>([] {
    Trace t;
    t.name = "tiny";
    t.requests.push_back(Request{0, 1, 1000, Op::kGet});
    return t;
  }());
  const sweep::Fingerprint identity = sweep::FingerprintTraceContent(*trace);
  sweep::SweepScheduler::Options opt;
  opt.threads = static_cast<int>(state.range(0));
  sweep::SweepScheduler sched(std::move(opt));
  uint64_t seed = 0;
  for (auto _ : state) {
    sweep::SweepJobSpec spec;
    spec.trace = trace;
    spec.trace_name = trace->name;
    spec.trace_identity = identity;
    spec.config.approach = Approach::kRemote;
    spec.config.seed = ++seed;
    const size_t id = sched.Submit(std::move(spec));
    benchmark::DoNotOptimize(sched.Result(id).costs.Total());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepSchedulerDispatch)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);

// In-process dedup lookup cost: every submission after the first hits the
// fingerprint map instead of running anything.
void BM_SweepDedupLookup(benchmark::State& state) {
  auto trace = std::make_shared<const Trace>([] {
    Trace t;
    t.name = "tiny";
    t.requests.push_back(Request{0, 1, 1000, Op::kGet});
    return t;
  }());
  sweep::SweepScheduler::Options opt;
  opt.threads = 1;
  sweep::SweepScheduler sched(std::move(opt));
  sweep::SweepJobSpec spec;
  spec.trace = trace;
  spec.trace_name = trace->name;
  spec.trace_identity = sweep::FingerprintTraceContent(*trace);
  spec.config.approach = Approach::kRemote;
  sched.Submit(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.Submit(spec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepDedupLookup);

}  // namespace
}  // namespace macaron

// Like BENCHMARK_MAIN(), plus build context in the report. A report is
// written only on request, so a casual run can never replace the committed
// baseline; re-record it with
//   bench_micro --benchmark_out=BENCH_micro.json --benchmark_out_format=json
//
// The report's "library_build_type" describes the preinstalled
// google-benchmark library, NOT this binary — a Release build of ours still
// reports "debug" there. "macaron_build_type" in the custom context is the
// authoritative field; a non-optimized build additionally warns on stderr
// (numbers from it are meaningless for the recorded baselines).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("macaron_build_type",
                              macaron::bench::OptimizedBuild() ? "optimized" : "unoptimized");
  // The cache-core probe path this binary was compiled with (src/cache/
  // simd.h): recorded numbers must say which feature set produced them.
  benchmark::AddCustomContext("macaron_simd", macaron::SimdFeatureString());
  // Threaded benches only mean something next to the core count they ran on.
  benchmark::AddCustomContext("nproc",
                              std::to_string(macaron::ThreadPool::HardwareConcurrency()));
  macaron::bench::WarnIfUnoptimizedBuild("bench_micro");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
