// Miniature simulation for MRC and BMC construction (§5.2).
//
// Following Waldspurger et al., each emulated cache size C is represented by
// a mini-cache of capacity C * R processing the spatially sampled request
// stream (sampling ratio R). Per window, the bank reports
//   MRC(C) = sampled misses / sampled gets
//   BMC(C) = sampled missed bytes / realized admission rate
// both normalized by the *realized* admission rate (sampled gets / gets),
// so the two estimators stay consistent when the spatial sampler under- or
// over-admits on a small window. Mini-cache state persists across windows
// (the paper stores it in EFS between serverless invocations).
//
// Sampling, batching and the (forked, when a pool is set) batch replay live
// in the bank's SampledFeed (see sampled_feed.h); each grid point replays a
// batch against its own mini-cache through the policy's devirtualized
// prehashed kernel (EvictionCache::ReplayMiniSim), so curves are
// bit-identical with or without a pool, at any thread count.

#ifndef MACARON_SRC_MINISIM_MRC_BANK_H_
#define MACARON_SRC_MINISIM_MRC_BANK_H_

#include <cstdint>
#include <vector>

#include "src/cache/eviction_policy.h"
#include "src/common/curve.h"
#include "src/minisim/sampled_feed.h"

namespace macaron {

// The per-window output of a bank.
struct WindowCurves {
  Curve mrc;  // x: full-scale capacity bytes, y: object miss ratio
  Curve bmc;  // x: full-scale capacity bytes, y: full-scale bytes missed in the window
  uint64_t sampled_gets = 0;    // sampled GETs observed (post-sampling)
  uint64_t window_requests = 0; // raw (unsampled) requests in the window
};

class MrcBank {
 public:
  // grid: full-scale capacities; ratio: spatial sampling ratio in (0,1].
  // policy: the replacement policy the mini-caches emulate — it must match
  // the policy deployed in the real cache for the curves to predict it.
  MrcBank(std::vector<uint64_t> grid, double ratio, uint64_t salt,
          EvictionPolicyKind policy = EvictionPolicyKind::kLru);

  // Forks batch replays across `pool`; nullptr (the default) replays
  // inline. Curves are identical either way.
  void set_thread_pool(ThreadPool* pool) { feed_.set_thread_pool(pool); }
  // Batch counters (see SampledFeed::set_metrics).
  void set_metrics(obs::Counter* batches, obs::Counter* batch_requests) {
    feed_.set_metrics(batches, batch_requests);
  }

  // Feed the unsampled stream, per row or as column segments (see
  // SampledFeed).
  void Process(const Request& r) { feed_.Process(r); }
  void ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end) {
    feed_.ProcessColumns(chunk, begin, end);
  }

  // Returns this window's curves and resets window counters. Cache contents
  // persist.
  WindowCurves EndWindow();

  const std::vector<uint64_t>& grid() const { return grid_; }

  // Total slab slots ever materialized across all mini-caches (live +
  // freelist). Once the bank reaches steady state this stops growing:
  // windows reuse slab nodes instead of allocating (see slab_lru.h). The
  // slab-reuse regression test pins that property. Joins the in-flight
  // replay first.
  size_t allocated_nodes();

 private:
  friend class SampledFeed;
  void ReplayGridPoint(const SampledBatch& batch, size_t i);

  std::vector<uint64_t> grid_;
  double ratio_;
  std::vector<std::unique_ptr<EvictionCache>> caches_;
  std::vector<uint64_t> window_misses_;
  std::vector<uint64_t> window_missed_bytes_;
  SampledFeed feed_;  // last: destroying it joins replays that write the state above
};

}  // namespace macaron

#endif  // MACARON_SRC_MINISIM_MRC_BANK_H_
