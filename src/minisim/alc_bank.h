// Two-level miniature simulation for the average latency curve (ALC, §5.2).
//
// Each grid point emulates a (cache cluster of size X, OSC of the currently
// chosen size) pair, both scaled by the sampling ratio. Unlike Symbiosis,
// Macaron computes the latency of every access *during* the simulation from
// the current latency generator (capturing object-size drift), and models
// request delaying: a duplicate access while a remote fetch is in flight is
// counted at remote latency, not as a cluster hit (Fig 5).
//
// The bank also exposes per-level hit counters per grid point so callers can
// construct the Symbiosis-style ALC (fixed per-level latencies multiplied by
// hit ratios) for the accuracy comparison of Fig 5.
//
// Sampled requests are buffered into fixed-size SoA batches carrying the
// sampler's admission hash (hashed once per request, reused by both L1 and
// L2 mini-caches of every level; see replay_batch.h); the per-source
// latency draws happen at Process/ProcessColumns time (one RNG pass, in
// stream order, shared across grid points), so each level's replay over the
// batch is pure private-state work and an optional ThreadPool can fan
// levels across cores with bit-identical results. set_async_replay(true)
// additionally overlaps that fan-out with the calling thread by forking
// it instead of joining, double-buffering the batch and its latency
// columns; see mrc_bank.h for the in-flight/join discipline.

#ifndef MACARON_SRC_MINISIM_ALC_BANK_H_
#define MACARON_SRC_MINISIM_ALC_BANK_H_

#include <cstdint>
#include <vector>

#include "src/cache/inflight.h"
#include "src/cache/lru_cache.h"
#include "src/cache/replay_batch.h"
#include "src/cloudsim/latency.h"
#include "src/common/curve.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/trace/request.h"
#include "src/trace/sampler.h"

namespace macaron {

namespace obs {
class Counter;
}  // namespace obs

// Per-grid-point level hit counters for one window.
struct AlcLevelCounts {
  uint64_t cluster_hits = 0;
  uint64_t osc_hits = 0;
  uint64_t remote_misses = 0;   // true remote fetches
  uint64_t delayed_hits = 0;    // coalesced onto an in-flight fetch
  uint64_t total() const { return cluster_hits + osc_hits + remote_misses + delayed_hits; }
};

struct AlcWindow {
  // x: cluster capacity (full-scale bytes); y: mean latency ms.
  Curve alc;
  std::vector<AlcLevelCounts> level_counts;  // parallel to the grid
  uint64_t sampled_gets = 0;
};

class AlcBank {
 public:
  // cluster_grid: full-scale cluster capacities (the ALC x axis).
  AlcBank(std::vector<uint64_t> cluster_grid, uint64_t osc_capacity, double ratio, uint64_t salt,
          const LatencySampler* latency, uint64_t seed);

  ~AlcBank();

  // Fans grid points across `pool` at batch boundaries; nullptr (the
  // default) replays sequentially. Curves are identical either way.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  // With a pool set, fork batch fan-outs instead of joining them (see
  // file comment). Off by default; curves are identical either way.
  void set_async_replay(bool async) { async_ = async; }

  // Optional counters, bumped only at batch boundaries (never per request,
  // keeping the Process hot path untouched). Pass both or neither.
  void set_metrics(obs::Counter* batches, obs::Counter* batch_requests) {
    m_batches_ = batches;
    m_batch_requests_ = batch_requests;
  }

  // Updates the emulated OSC capacity (decided by the controller each
  // window); resizes the L2 mini-caches.
  void SetOscCapacity(uint64_t osc_capacity);

  void Process(const Request& r);

  // Columnar equivalent of calling Process on rows [begin, end) of `chunk`
  // in order: the admission rehash + compaction run branch-free over the id
  // column (the chunk's hash column is the engines' ingest domain, not this
  // bank's salted domain), latency draws happen per admitted GET in stream
  // order (the exact RNG sequence of the per-row path), and survivors
  // append to the replay batch in bulk. Batches flush at the exact same
  // stream positions as the per-row path.
  void ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end);

  AlcWindow EndWindow();

  const std::vector<uint64_t>& cluster_grid() const { return grid_; }

  // Total slab slots ever materialized across all mini-caches (live +
  // freelist); stops growing at steady state (see slab_lru.h).
  size_t allocated_nodes() const;

 private:
  struct Level {
    LruCache cluster;
    LruCache osc;
    InflightTable inflight;
    double latency_sum_ms = 0.0;
    AlcLevelCounts counts;
  };

  // The batch and its parallel latency columns travel together through the
  // double-buffered flush.
  struct PendingBatch {
    ReplayBatch batch;
    std::vector<double> lat_cluster;
    std::vector<double> lat_osc;
    std::vector<double> lat_remote;
    void Clear() {
      batch.Clear();
      lat_cluster.clear();
      lat_osc.clear();
      lat_remote.clear();
    }
  };

  void FlushBatch();
  void ReplayGridPoint(const PendingBatch& b, size_t i);

  std::vector<uint64_t> grid_;
  double ratio_;
  SpatialSampler sampler_;
  const LatencySampler* latency_;
  Rng rng_;
  ThreadPool* pool_ = nullptr;
  bool async_ = false;
  // Sampled requests (+ admission hashes) awaiting replay, with their
  // pre-drawn latencies in parallel columns (GETs only; one draw per
  // source, shared across grid points, so curves differ only through cache
  // behaviour — lower variance, one RNG pass).
  PendingBatch filling_;
  PendingBatch replaying_;  // shadow buffer owned by the in-flight async replay
  ForkJoin replay_;  // the in-flight async fan-out, if any
  // Survivor scratch for ProcessColumns (position + salted hash + latency
  // draws per admitted row), reused across chunks.
  std::vector<uint32_t> idx_scratch_;
  std::vector<uint64_t> hash_scratch_;
  std::vector<double> lat_scratch_[3];
  std::vector<Level> levels_;
  uint64_t window_gets_ = 0;
  obs::Counter* m_batches_ = nullptr;
  obs::Counter* m_batch_requests_ = nullptr;
};

}  // namespace macaron

#endif  // MACARON_SRC_MINISIM_ALC_BANK_H_
