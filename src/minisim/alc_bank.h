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
// The bank ingests through a SampledFeed (see sampled_feed.h) that also
// draws each sampled GET's per-source latencies at append time (one RNG
// pass, in stream order, shared across grid points), so each level's replay
// over a batch is pure private-state work and curves are bit-identical with
// or without a pool.

#ifndef MACARON_SRC_MINISIM_ALC_BANK_H_
#define MACARON_SRC_MINISIM_ALC_BANK_H_

#include <cstdint>
#include <vector>

#include "src/cache/inflight.h"
#include "src/cache/lru_cache.h"
#include "src/cloudsim/latency.h"
#include "src/common/curve.h"
#include "src/minisim/sampled_feed.h"

namespace macaron {

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

  // Forks batch replays across `pool`; nullptr (the default) replays
  // inline. Curves are identical either way.
  void set_thread_pool(ThreadPool* pool) { feed_.set_thread_pool(pool); }
  // Batch counters (see SampledFeed::set_metrics).
  void set_metrics(obs::Counter* batches, obs::Counter* batch_requests) {
    feed_.set_metrics(batches, batch_requests);
  }

  // Updates the emulated OSC capacity (decided by the controller each
  // window); resizes the L2 mini-caches.
  void SetOscCapacity(uint64_t osc_capacity);

  // Feed the unsampled stream, per row or as column segments (see
  // SampledFeed).
  void Process(const Request& r) { feed_.Process(r); }
  void ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end) {
    feed_.ProcessColumns(chunk, begin, end);
  }

  AlcWindow EndWindow();

  const std::vector<uint64_t>& cluster_grid() const { return grid_; }

  // Total slab slots ever materialized across all mini-caches (live +
  // freelist); stops growing at steady state (see slab_lru.h). Joins the
  // in-flight replay first.
  size_t allocated_nodes();

 private:
  friend class SampledFeed;

  struct Level {
    LruCache cluster;
    LruCache osc;
    InflightTable inflight;
    double latency_sum_ms = 0.0;
    AlcLevelCounts counts;
  };

  void ReplayGridPoint(const SampledBatch& b, size_t i);

  std::vector<uint64_t> grid_;
  double ratio_;
  std::vector<Level> levels_;
  SampledFeed feed_;  // last: destroying it joins replays that write the state above
};

}  // namespace macaron

#endif  // MACARON_SRC_MINISIM_ALC_BANK_H_
