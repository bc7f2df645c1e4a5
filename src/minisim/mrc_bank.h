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
// Sampled requests are buffered into fixed-size SoA batches (see
// replay_batch.h) carrying the sampler's admission hash, and each grid point
// replays the batch against its own mini-cache through the policy's
// devirtualized prehashed kernel (EvictionCache::ReplayMiniSim) — each
// request is hashed exactly once, at Process()/ProcessColumns() time, for
// all grid points. Grid points share no mutable state, so an optional
// ThreadPool fans them across cores; parallel and sequential replay produce
// bit-identical curves.
//
// With set_async_replay(true) a full batch is swapped into a shadow buffer
// and its grid fan-out is *forked* on the pool instead of joined, so
// replay overlaps whatever the calling thread does next (in the engines:
// serving shards and decoding the next chunk). At most one batch is in
// flight — the next flush joins the previous fork first, claiming any grid
// points no worker has started — so each grid point still sees batches
// strictly in stream order, and EndWindow joins before reading window
// counters; outputs are bit-identical to synchronous replay at any thread
// count.

#ifndef MACARON_SRC_MINISIM_MRC_BANK_H_
#define MACARON_SRC_MINISIM_MRC_BANK_H_

#include <cstdint>
#include <vector>

#include "src/cache/eviction_policy.h"
#include "src/cache/replay_batch.h"
#include "src/common/curve.h"
#include "src/common/thread_pool.h"
#include "src/trace/request.h"
#include "src/trace/sampler.h"

namespace macaron {

namespace obs {
class Counter;
}  // namespace obs

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

  ~MrcBank();

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

  // Feeds one request (unsampled stream; the bank samples internally).
  void Process(const Request& r);

  // Columnar equivalent of calling Process on rows [begin, end) of `chunk`
  // in order: window scalars fold from the op column, the admission rehash
  // + compaction run branch-free over the id column (the chunk's hash
  // column is the engines' ingest domain, not this bank's salted domain),
  // and survivors append to the replay batch in bulk. Batches flush at the
  // exact same stream positions as the per-row path.
  void ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end);

  // Returns this window's curves and resets window counters. Cache contents
  // persist.
  WindowCurves EndWindow();

  const std::vector<uint64_t>& grid() const { return grid_; }
  double ratio() const { return ratio_; }

  // Total slab slots ever materialized across all mini-caches (live +
  // freelist). Once the bank reaches steady state this stops growing:
  // windows reuse slab nodes instead of allocating (see slab_lru.h). The
  // slab-reuse regression test pins that property.
  size_t allocated_nodes() const;

 private:
  void FlushBatch();
  void ReplayGridPoint(const ReplayBatch& batch, size_t i);

  std::vector<uint64_t> grid_;
  double ratio_;
  SpatialSampler sampler_;
  ThreadPool* pool_ = nullptr;
  bool async_ = false;
  ReplayBatch batch_;      // sampled requests (+ admission hashes) being filled
  ReplayBatch replaying_;  // shadow buffer owned by the in-flight async replay
  ForkJoin replay_;  // the in-flight async fan-out, if any
  // Survivor scratch for ProcessColumns (position + salted hash per
  // admitted row), reused across chunks.
  std::vector<uint32_t> idx_scratch_;
  std::vector<uint64_t> hash_scratch_;
  std::vector<std::unique_ptr<EvictionCache>> caches_;
  std::vector<uint64_t> window_misses_;
  std::vector<uint64_t> window_missed_bytes_;
  uint64_t window_gets_ = 0;
  uint64_t window_sampled_gets_ = 0;
  uint64_t window_requests_ = 0;
  obs::Counter* m_batches_ = nullptr;
  obs::Counter* m_batch_requests_ = nullptr;
};

}  // namespace macaron

#endif  // MACARON_SRC_MINISIM_MRC_BANK_H_
