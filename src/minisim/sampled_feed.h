// The sampled-batch feed under every mini-sim bank (§5.2).
//
// Each bank (MrcBank, TtlBank, AlcBank) consumes the unsampled request
// stream, keeps its spatially sampled part, and replays that against one
// private mini-cache state per grid point. The feed is everything but that
// per-grid-point state:
//   * the SpatialSampler and the window's request / GET / sampled-GET
//     counters, from which EndWindow derives the realized admission rate;
//   * the fixed-size SoA batch the survivors are buffered into, each row
//     carrying its admission hash so no replay path rehashes (SHARDS hash
//     reuse; see sampler.h and replay_batch.h), plus, for a feed that draws
//     latencies (the ALC bank's), three per-row latency columns drawn at
//     append time, in stream order, from the feed's own Rng;
//   * both ingest paths: per-row Process and columnar ProcessColumns, which
//     flush at exactly the same stream positions;
//   * the flush, which hands a full batch to the owning bank's
//     ReplayGridPoint(batch, i) for every grid point i.
//
// Flush. The filling batch is swapped into a shadow buffer and replayed
// from there. With a pool the grid fan-out is *forked*, so replay overlaps
// whatever the calling thread does next (in the engines: serving shards
// and decoding the next chunk); without one, or on a workerless pool, it
// runs inline. At most one batch is in flight: the next flush, Drain,
// EndWindow or Join joins it first, claiming any grid points no worker has
// started, so each grid point sees batches strictly in stream order. Grid
// points share no mutable state, so curves are bit-identical with or
// without a pool and at any thread count.

#ifndef MACARON_SRC_MINISIM_SAMPLED_FEED_H_
#define MACARON_SRC_MINISIM_SAMPLED_FEED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/cache/replay_batch.h"
#include "src/cloudsim/latency.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/trace/request.h"
#include "src/trace/sampler.h"

namespace macaron {

namespace obs {
class Counter;
}  // namespace obs

// One buffered batch of sampled requests.
struct SampledBatch {
  ReplayBatch rows;
  // Latency draws (ms) per row from the cache cluster, the OSC and the
  // remote lake, filled only by a feed that draws latencies: a GET row
  // carries one draw per source (shared across grid points, so curves
  // differ only through cache behaviour), any other row zeros.
  std::vector<double> lat_cluster;
  std::vector<double> lat_osc;
  std::vector<double> lat_remote;

  size_t size() const { return rows.size(); }
  void Reserve(size_t n, bool latencies);
  void Clear();
};

// A window's totals, as the banks normalize their curves.
struct FeedWindow {
  uint64_t requests = 0;      // raw (unsampled) requests
  uint64_t sampled_gets = 0;  // GETs the sampler admitted
  // sampled GETs / GETs. On small windows the realized fraction drifts
  // from the nominal ratio, and normalizing the MRC by the realized
  // sampled-GET count while scaling missed bytes by the nominal 1/ratio
  // would bias the egress estimate; one realized rate keeps every curve
  // consistent. With no (sampled) GETs it falls back to the nominal ratio,
  // which keeps the curves at exact zero without dividing by zero.
  double realized_rate = 0.0;
};

class SampledFeed {
 public:
  // Feeds `bank`, whose ReplayGridPoint(const SampledBatch&, size_t i)
  // replays a batch against grid point i's state, for i < grid_points.
  // With `latency` set, every admitted GET draws its three latencies from
  // an Rng seeded with `latency_seed`.
  template <typename Bank>
  SampledFeed(Bank* bank, size_t grid_points, double ratio, uint64_t salt,
              const LatencySampler* latency = nullptr, uint64_t latency_seed = 0)
      : SampledFeed(bank,
                    [](void* b, const SampledBatch& batch, size_t i) {
                      static_cast<Bank*>(b)->ReplayGridPoint(batch, i);
                    },
                    grid_points, ratio, salt, latency, latency_seed) {}

  SampledFeed(const SampledFeed&) = delete;
  SampledFeed& operator=(const SampledFeed&) = delete;

  // Forks batch replays on `pool`; nullptr (the default) replays inline.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  // Optional counters, bumped only at batch boundaries (never per request,
  // keeping the Process hot path untouched). Pass both or neither.
  void set_metrics(obs::Counter* batches, obs::Counter* batch_requests) {
    m_batches_ = batches;
    m_batch_requests_ = batch_requests;
  }

  // Feeds one request of the unsampled stream.
  void Process(const Request& r);

  // Columnar equivalent of calling Process on rows [begin, end) of `chunk`
  // in order: window counters fold from the op column, the admission
  // rehash + compaction run branch-free over the id column (the chunk's
  // hash column is the engines' ingest domain, not this feed's salted
  // domain), and survivors append in slices bounded by the batch's room,
  // so batches flush at the per-row path's exact stream positions.
  void ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end);

  // Waits for the in-flight replay, if any. Afterwards the bank's grid
  // state is quiescent until the next flush.
  void Join() { replay_.Join(); }

  // Replays everything buffered so far and joins it: what follows in the
  // stream sees every grid point up to date.
  void Drain();

  // Drains, then returns the window's totals and resets them.
  FeedWindow EndWindow();

 private:
  using ReplayFn = void (*)(void* bank, const SampledBatch& batch, size_t i);

  SampledFeed(void* bank, ReplayFn replay, size_t grid_points, double ratio, uint64_t salt,
              const LatencySampler* latency, uint64_t latency_seed);

  void DrawLatencies(Op op, uint64_t size);
  void Flush();

  void* bank_;
  ReplayFn replay_fn_;
  size_t grid_points_;
  SpatialSampler sampler_;
  const LatencySampler* latency_;
  Rng rng_;
  ThreadPool* pool_ = nullptr;
  SampledBatch filling_;
  SampledBatch replaying_;  // read by the in-flight replay
  // Survivor scratch for ProcessColumns (position + salted hash per
  // admitted row), reused across chunks.
  std::vector<uint32_t> idx_scratch_;
  std::vector<uint64_t> hash_scratch_;
  uint64_t window_requests_ = 0;
  uint64_t window_gets_ = 0;
  uint64_t window_sampled_gets_ = 0;
  obs::Counter* m_batches_ = nullptr;
  obs::Counter* m_batch_requests_ = nullptr;
  // Declared last, so destroying the feed joins the in-flight replay
  // before the buffer it reads goes away. The owning bank declares its
  // feed after its grid state for the same reason.
  ForkJoin replay_;
};

}  // namespace macaron

#endif  // MACARON_SRC_MINISIM_SAMPLED_FEED_H_
