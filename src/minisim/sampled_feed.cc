#include "src/minisim/sampled_feed.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"

namespace macaron {

namespace {
// Sampled requests buffered before a replay fan-out. Bounds batch memory
// while keeping per-grid-point replay runs long enough to amortize the
// fan-out; at the default 5% sampling this is ~80k raw requests.
constexpr size_t kBatchCapacity = 4096;
}  // namespace

void SampledBatch::Reserve(size_t n, bool latencies) {
  rows.Reserve(n);
  if (latencies) {
    lat_cluster.reserve(n);
    lat_osc.reserve(n);
    lat_remote.reserve(n);
  }
}

void SampledBatch::Clear() {
  rows.Clear();
  lat_cluster.clear();
  lat_osc.clear();
  lat_remote.clear();
}

SampledFeed::SampledFeed(void* bank, ReplayFn replay, size_t grid_points, double ratio,
                         uint64_t salt, const LatencySampler* latency, uint64_t latency_seed)
    : bank_(bank),
      replay_fn_(replay),
      grid_points_(grid_points),
      sampler_(ratio, salt),
      latency_(latency),
      rng_(latency_seed) {
  filling_.Reserve(kBatchCapacity, latency_ != nullptr);
  replaying_.Reserve(kBatchCapacity, latency_ != nullptr);
}

void SampledFeed::DrawLatencies(Op op, uint64_t size) {
  double lat_cluster = 0.0;
  double lat_osc = 0.0;
  double lat_remote = 0.0;
  if (op == Op::kGet) {
    lat_cluster = latency_->SampleMs(DataSource::kCacheCluster, size, rng_);
    lat_osc = latency_->SampleMs(DataSource::kOsc, size, rng_);
    lat_remote = latency_->SampleMs(DataSource::kRemoteLake, size, rng_);
  }
  filling_.lat_cluster.push_back(lat_cluster);
  filling_.lat_osc.push_back(lat_osc);
  filling_.lat_remote.push_back(lat_remote);
}

void SampledFeed::Process(const Request& r) {
  ++window_requests_;
  if (r.op == Op::kGet) {
    ++window_gets_;
  }
  // One hash serves the admission test and, for admitted requests, every
  // grid point's mini-cache index.
  const uint64_t hash = sampler_.Hash(r.id);
  if (!sampler_.AdmitHashed(hash)) {
    return;
  }
  if (r.op == Op::kGet) {
    ++window_sampled_gets_;
  }
  filling_.rows.PushBack(r, hash);
  if (latency_ != nullptr) {
    DrawLatencies(r.op, r.size);
  }
  if (filling_.size() >= kBatchCapacity) {
    Flush();
  }
}

void SampledFeed::ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end) {
  const size_t n = end - begin;
  if (n == 0) {
    return;
  }
  window_requests_ += n;
  uint64_t gets = 0;
  for (size_t k = begin; k < end; ++k) {
    gets += static_cast<uint64_t>(chunk.ops[k] == Op::kGet);
  }
  window_gets_ += gets;
  if (idx_scratch_.size() < n) {
    idx_scratch_.resize(n);
    hash_scratch_.resize(n);
  }
  const size_t m = sampler_.CompactAdmitted(chunk.ids.data() + begin, n,
                                            idx_scratch_.data(), hash_scratch_.data());
  for (size_t j = 0; j < m; ++j) {
    window_sampled_gets_ +=
        static_cast<uint64_t>(chunk.ops[begin + idx_scratch_[j]] == Op::kGet);
  }
  size_t done = 0;
  while (done < m) {
    const size_t take = std::min(kBatchCapacity - filling_.size(), m - done);
    const size_t base = filling_.rows.size();
    filling_.rows.AppendGather(chunk, begin, idx_scratch_.data() + done,
                               hash_scratch_.data() + done, take);
    if (latency_ != nullptr) {
      // Survivors draw in stream order: the per-row path's RNG sequence.
      for (size_t k = base; k < base + take; ++k) {
        DrawLatencies(filling_.rows.ops[k], filling_.rows.sizes[k]);
      }
    }
    done += take;
    if (filling_.size() >= kBatchCapacity) {
      Flush();
    }
  }
}

void SampledFeed::Flush() {
  if (filling_.size() == 0) {
    return;
  }
  // Counters are bumped on the calling (ingest) thread at submit time, so
  // the metrics registry stays single-writer while replays are in flight.
  if (m_batches_ != nullptr) {
    m_batches_->Inc();
    m_batch_requests_->Inc(filling_.size());
  }
  // Grid-point state persists across batches, so batch N+1 must not
  // replay before batch N finishes.
  replay_.Join();
  std::swap(filling_, replaying_);
  filling_.Clear();
  if (pool_ != nullptr) {
    replay_ = pool_->Fork(grid_points_,
                          [this](size_t i) { replay_fn_(bank_, replaying_, i); });
  } else {
    for (size_t i = 0; i < grid_points_; ++i) {
      replay_fn_(bank_, replaying_, i);
    }
  }
}

void SampledFeed::Drain() {
  Flush();
  replay_.Join();
}

FeedWindow SampledFeed::EndWindow() {
  Drain();
  FeedWindow w;
  w.requests = window_requests_;
  w.sampled_gets = window_sampled_gets_;
  w.realized_rate = (window_gets_ > 0 && window_sampled_gets_ > 0)
                        ? static_cast<double>(window_sampled_gets_) /
                              static_cast<double>(window_gets_)
                        : sampler_.ratio();
  window_requests_ = 0;
  window_gets_ = 0;
  window_sampled_gets_ = 0;
  return w;
}

}  // namespace macaron
