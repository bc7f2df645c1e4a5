#include "src/minisim/alc_bank.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/obs/metrics.h"

namespace macaron {

namespace {
constexpr size_t kBatchCapacity = 4096;  // sampled requests per replay fan-out
constexpr size_t kPrefetchAhead = 8;     // see ReplayKernel (eviction_policy.cc)
}  // namespace

AlcBank::AlcBank(std::vector<uint64_t> cluster_grid, uint64_t osc_capacity, double ratio,
                 uint64_t salt, const LatencySampler* latency, uint64_t seed)
    : grid_(std::move(cluster_grid)),
      ratio_(ratio),
      sampler_(ratio, salt),
      latency_(latency),
      rng_(seed) {
  MACARON_CHECK(!grid_.empty());
  MACARON_CHECK(latency_ != nullptr);
  for (PendingBatch* b : {&filling_, &replaying_}) {
    b->batch.Reserve(kBatchCapacity);
    b->lat_cluster.reserve(kBatchCapacity);
    b->lat_osc.reserve(kBatchCapacity);
    b->lat_remote.reserve(kBatchCapacity);
  }
  const uint64_t mini_osc = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(osc_capacity) * ratio_));
  levels_.reserve(grid_.size());
  for (uint64_t capacity : grid_) {
    const uint64_t mini_cluster = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(capacity) * ratio_));
    levels_.push_back(Level{LruCache(mini_cluster), LruCache(mini_osc), InflightTable{}, 0.0,
                            AlcLevelCounts{}});
  }
}

AlcBank::~AlcBank() {
  // Async fan-out tasks reference this bank; never let it die before them.
  replay_.Join();
}

void AlcBank::SetOscCapacity(uint64_t osc_capacity) {
  // Resizing applies from this point in the stream: replay what came before
  // (and wait for it — the in-flight fan-out reads the L2s being resized).
  FlushBatch();
  replay_.Join();
  const uint64_t mini_osc = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(osc_capacity) * ratio_));
  for (Level& level : levels_) {
    level.osc.Resize(mini_osc);
  }
}

void AlcBank::Process(const Request& r) {
  if (r.op == Op::kGet) {
    ++window_gets_;
  }
  // One hash for admission and for both mini-cache levels of every grid
  // point (SHARDS hash reuse; see sampler.h).
  const uint64_t hash = sampler_.Hash(r.id);
  if (!sampler_.AdmitHashed(hash)) {
    return;
  }
  double lat_cluster = 0.0;
  double lat_osc = 0.0;
  double lat_remote = 0.0;
  if (r.op == Op::kGet) {
    lat_cluster = latency_->SampleMs(DataSource::kCacheCluster, r.size, rng_);
    lat_osc = latency_->SampleMs(DataSource::kOsc, r.size, rng_);
    lat_remote = latency_->SampleMs(DataSource::kRemoteLake, r.size, rng_);
  }
  filling_.batch.PushBack(r, hash);
  filling_.lat_cluster.push_back(lat_cluster);
  filling_.lat_osc.push_back(lat_osc);
  filling_.lat_remote.push_back(lat_remote);
  if (filling_.batch.size() >= kBatchCapacity) {
    FlushBatch();
  }
}

void AlcBank::ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end) {
  const size_t n = end - begin;
  if (n == 0) {
    return;
  }
  for (size_t k = begin; k < end; ++k) {
    window_gets_ += static_cast<uint64_t>(chunk.ops[k] == Op::kGet);
  }
  if (idx_scratch_.size() < n) {
    idx_scratch_.resize(n);
    hash_scratch_.resize(n);
  }
  const size_t m = sampler_.CompactAdmitted(chunk.ids.data() + begin, n,
                                            idx_scratch_.data(), hash_scratch_.data());
  // Latency draws for survivors, in stream order — the same RNG consumption
  // as the per-row path (admitted GETs draw three, everything else draws
  // none and records zeros).
  for (auto& lane : lat_scratch_) {
    lane.resize(m);
  }
  for (size_t j = 0; j < m; ++j) {
    const size_t k = begin + idx_scratch_[j];
    double lat_cluster = 0.0;
    double lat_osc = 0.0;
    double lat_remote = 0.0;
    if (chunk.ops[k] == Op::kGet) {
      lat_cluster = latency_->SampleMs(DataSource::kCacheCluster, chunk.sizes[k], rng_);
      lat_osc = latency_->SampleMs(DataSource::kOsc, chunk.sizes[k], rng_);
      lat_remote = latency_->SampleMs(DataSource::kRemoteLake, chunk.sizes[k], rng_);
    }
    lat_scratch_[0][j] = lat_cluster;
    lat_scratch_[1][j] = lat_osc;
    lat_scratch_[2][j] = lat_remote;
  }
  // Append survivors in slices bounded by the batch's remaining room so
  // flushes land at the same stream positions as the per-row path.
  size_t done = 0;
  while (done < m) {
    const size_t take = std::min(kBatchCapacity - filling_.batch.size(), m - done);
    filling_.batch.AppendGather(chunk, begin, idx_scratch_.data() + done,
                                hash_scratch_.data() + done, take);
    filling_.lat_cluster.insert(filling_.lat_cluster.end(), lat_scratch_[0].begin() + done,
                                lat_scratch_[0].begin() + (done + take));
    filling_.lat_osc.insert(filling_.lat_osc.end(), lat_scratch_[1].begin() + done,
                            lat_scratch_[1].begin() + (done + take));
    filling_.lat_remote.insert(filling_.lat_remote.end(), lat_scratch_[2].begin() + done,
                               lat_scratch_[2].begin() + (done + take));
    done += take;
    if (filling_.batch.size() >= kBatchCapacity) {
      FlushBatch();
    }
  }
}

void AlcBank::ReplayGridPoint(const PendingBatch& b, size_t i) {
  Level& level = levels_[i];
  const size_t n = b.batch.size();
  for (size_t k = 0; k < n; ++k) {
    if (k + kPrefetchAhead < n) {
      // Cluster level only: every request probes it, while the OSC level
      // is reached on cluster misses. Prefetching both indexes here was
      // measurably slower — the extra stream evicts more than it hides.
      level.cluster.PrefetchPrehashed(b.batch.hashes[k + kPrefetchAhead]);
    }
    const ObjectId id = b.batch.ids[k];
    const uint64_t hash = b.batch.hashes[k];
    const uint64_t size = b.batch.sizes[k];
    const SimTime time = b.batch.times[k];
    switch (b.batch.ops[k]) {
      case Op::kGet: {
        if (auto completion = level.inflight.Pending(id, time)) {
          // The object was admitted at request time but its fetch is still
          // in flight: the duplicate access waits for that completion (the
          // false-positive-hit correction of Fig 5b).
          level.latency_sum_ms += static_cast<double>(*completion - time);
          ++level.counts.delayed_hits;
          break;
        }
        if (level.cluster.GetPrehashed(id, hash)) {
          level.latency_sum_ms += b.lat_cluster[k];
          ++level.counts.cluster_hits;
          break;
        }
        if (level.osc.GetPrehashed(id, hash)) {
          level.latency_sum_ms += b.lat_osc[k];
          ++level.counts.osc_hits;
          level.cluster.PutPrehashed(id, hash, size);  // promote
          break;
        }
        level.latency_sum_ms += b.lat_remote[k];
        ++level.counts.remote_misses;
        level.inflight.Insert(id, time + static_cast<SimTime>(b.lat_remote[k]));
        level.osc.PutPrehashed(id, hash, size);
        level.cluster.PutPrehashed(id, hash, size);
        break;
      }
      case Op::kPut:
        level.osc.PutPrehashed(id, hash, size);
        level.cluster.PutPrehashed(id, hash, size);
        break;
      case Op::kDelete:
        level.osc.ErasePrehashed(id, hash);
        level.cluster.ErasePrehashed(id, hash);
        level.inflight.Erase(id);
        break;
    }
  }
}

void AlcBank::FlushBatch() {
  if (filling_.batch.empty()) {
    return;
  }
  // Counters are bumped on the calling (ingest) thread at submit time, so
  // the metrics registry stays single-writer even with async replay.
  if (m_batches_ != nullptr) {
    m_batches_->Inc();
    m_batch_requests_->Inc(filling_.batch.size());
  }
  if (pool_ != nullptr && async_) {
    // One batch in flight at most: grid-point state persists across
    // batches, so batch N+1 must not replay before batch N finishes.
    replay_.Join();
    std::swap(filling_, replaying_);
    replay_ = pool_->Fork(grid_.size(), [this](size_t i) { ReplayGridPoint(replaying_, i); });
  } else if (pool_ != nullptr) {
    pool_->ParallelFor(grid_.size(), [this](size_t i) { ReplayGridPoint(filling_, i); });
  } else {
    for (size_t i = 0; i < grid_.size(); ++i) {
      ReplayGridPoint(filling_, i);
    }
  }
  filling_.Clear();
}

size_t AlcBank::allocated_nodes() const {
  size_t total = 0;
  for (const Level& level : levels_) {
    total += level.cluster.allocated_nodes() + level.osc.allocated_nodes();
  }
  return total;
}

AlcWindow AlcBank::EndWindow() {
  FlushBatch();
  replay_.Join();  // level sums/counters below are written by the fan-out tasks
  AlcWindow out;
  std::vector<double> xs;
  std::vector<double> ys;
  xs.reserve(grid_.size());
  ys.reserve(grid_.size());
  out.level_counts.reserve(grid_.size());
  for (size_t i = 0; i < grid_.size(); ++i) {
    Level& level = levels_[i];
    const uint64_t n = level.counts.total();
    xs.push_back(static_cast<double>(grid_[i]));
    ys.push_back(n == 0 ? 0.0 : level.latency_sum_ms / static_cast<double>(n));
    out.level_counts.push_back(level.counts);
    level.latency_sum_ms = 0.0;
    level.counts = AlcLevelCounts{};
  }
  out.alc = Curve(std::move(xs), std::move(ys));
  out.sampled_gets = out.level_counts.empty() ? 0 : out.level_counts.front().total();
  window_gets_ = 0;
  return out;
}

}  // namespace macaron
