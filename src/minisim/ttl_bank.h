// TTL-parameterized miniature simulation (Appendix B).
//
// For Macaron-TTL the curves use TTL on the x axis instead of capacity.
// Spatial sampling still applies, but mini-caches are *not* size-scaled
// (TTL eviction is capacity-independent); instead, missed bytes and the
// occupied capacity are divided by the realized admission rate afterwards
// (matching MrcBank's normalization — see mrc_bank.h). In addition to
// MRC(TTL) and BMC(TTL) the bank reports the OSC Capacity Curve: the
// time-averaged bytes resident for each candidate TTL.
//
// Like MrcBank, sampled requests are buffered into fixed-size SoA batches
// carrying the sampler's admission hash (hashed once per request, reused by
// every candidate TTL's mini-cache; see replay_batch.h) and each candidate
// TTL replays the batch against its own mini-cache; grid points are
// independent, so an optional ThreadPool fans them across cores with
// bit-identical results, and set_async_replay(true) overlaps the fan-out
// with the calling thread (double-buffered, one batch in flight, joined
// before EndWindow reads counters; see mrc_bank.h).

#ifndef MACARON_SRC_MINISIM_TTL_BANK_H_
#define MACARON_SRC_MINISIM_TTL_BANK_H_

#include <cstdint>
#include <vector>

#include "src/cache/replay_batch.h"
#include "src/cache/ttl_cache.h"
#include "src/common/curve.h"
#include "src/common/sim_time.h"
#include "src/common/thread_pool.h"
#include "src/trace/request.h"
#include "src/trace/sampler.h"

namespace macaron {

namespace obs {
class Counter;
}  // namespace obs

struct TtlWindowCurves {
  Curve mrc;       // x: TTL ms, y: object miss ratio
  Curve bmc;       // x: TTL ms, y: full-scale bytes missed in the window
  Curve capacity;  // x: TTL ms, y: full-scale time-averaged resident bytes
  uint64_t sampled_gets = 0;
  uint64_t window_requests = 0;
};

// The standard candidate-TTL grid: 1 h, 6 h, then every 12 h up to max
// (matching the exhaustive-search grid of §7.8).
std::vector<SimDuration> StandardTtlGrid(SimDuration max_ttl);

class TtlBank {
 public:
  TtlBank(std::vector<SimDuration> ttl_grid, double ratio, uint64_t salt);
  ~TtlBank();

  // Fans TTL grid points across `pool` at batch boundaries; nullptr (the
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

  void Process(const Request& r);

  // Columnar equivalent of calling Process on rows [begin, end) of `chunk`
  // in order: window scalars fold from the op column, the admission rehash
  // + compaction run branch-free over the id column (the chunk's hash
  // column is the engines' ingest domain, not this bank's salted domain),
  // and survivors append to the replay batch in bulk. Batches flush at the
  // exact same stream positions as the per-row path.
  void ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end);

  // `window`: the elapsed window duration, used for time-averaging capacity.
  TtlWindowCurves EndWindow(SimDuration window);

  const std::vector<SimDuration>& ttl_grid() const { return grid_; }

  // Total slab slots ever materialized across all mini-caches (live +
  // freelist); stops growing at steady state (see slab_lru.h).
  size_t allocated_nodes() const;

 private:
  struct Entry {
    TtlCache cache;
    uint64_t misses = 0;
    uint64_t missed_bytes = 0;
    // Time integral of resident bytes (byte-ms) for capacity averaging.
    double byte_time = 0.0;
    SimTime last_update = 0;
  };

  static void Advance(Entry& e, SimTime now);
  void FlushBatch();
  void ReplayGridPoint(const ReplayBatch& batch, size_t i);

  std::vector<SimDuration> grid_;
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
  std::vector<Entry> entries_;
  uint64_t window_gets_ = 0;
  uint64_t window_sampled_gets_ = 0;
  uint64_t window_requests_ = 0;
  SimTime window_start_ = 0;
  SimTime last_time_ = 0;
  obs::Counter* m_batches_ = nullptr;
  obs::Counter* m_batch_requests_ = nullptr;
};

}  // namespace macaron

#endif  // MACARON_SRC_MINISIM_TTL_BANK_H_
