#include "src/minisim/mrc_bank.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/obs/metrics.h"

namespace macaron {

namespace {
// Sampled requests buffered before a replay fan-out. Bounds batch memory
// while keeping per-grid-point replay runs long enough to amortize the
// fan-out; at the default 5% sampling this is ~80k raw requests.
constexpr size_t kBatchCapacity = 4096;
}  // namespace

MrcBank::MrcBank(std::vector<uint64_t> grid, double ratio, uint64_t salt,
                 EvictionPolicyKind policy)
    : grid_(std::move(grid)), ratio_(ratio), sampler_(ratio, salt) {
  MACARON_CHECK(!grid_.empty());
  MACARON_CHECK(std::is_sorted(grid_.begin(), grid_.end()));
  MACARON_CHECK(ratio_ > 0.0 && ratio_ <= 1.0);
  batch_.Reserve(kBatchCapacity);
  replaying_.Reserve(kBatchCapacity);
  caches_.reserve(grid_.size());
  for (uint64_t capacity : grid_) {
    const uint64_t mini = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(capacity) * ratio_));
    caches_.push_back(MakeEvictionCache(policy, mini));
  }
  window_misses_.assign(grid_.size(), 0);
  window_missed_bytes_.assign(grid_.size(), 0);
}

MrcBank::~MrcBank() {
  // Async fan-out tasks reference this bank; never let it die before them.
  replay_.Join();
}

void MrcBank::Process(const Request& r) {
  ++window_requests_;
  if (r.op == Op::kGet) {
    ++window_gets_;
  }
  // One hash serves the admission test and, for admitted requests, every
  // grid point's mini-cache index (SHARDS hash reuse; see sampler.h).
  const uint64_t hash = sampler_.Hash(r.id);
  if (!sampler_.AdmitHashed(hash)) {
    return;
  }
  if (r.op == Op::kGet) {
    ++window_sampled_gets_;
  }
  batch_.PushBack(r, hash);
  if (batch_.size() >= kBatchCapacity) {
    FlushBatch();
  }
}

void MrcBank::ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end) {
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
  // Append survivors in slices bounded by the batch's remaining room so
  // flushes land at the same stream positions as the per-row path.
  size_t done = 0;
  while (done < m) {
    const size_t take = std::min(kBatchCapacity - batch_.size(), m - done);
    batch_.AppendGather(chunk, begin, idx_scratch_.data() + done,
                        hash_scratch_.data() + done, take);
    done += take;
    if (batch_.size() >= kBatchCapacity) {
      FlushBatch();
    }
  }
}

void MrcBank::ReplayGridPoint(const ReplayBatch& batch, size_t i) {
  // The policy's prehashed SoA kernel (one virtual call per batch, then a
  // devirtualized loop). Stats accumulate locally and write back once per
  // batch: grid points run on pool threads, and neighboring window_misses_
  // slots share cache lines.
  const EvictionCache::MiniSimStats stats = caches_[i]->ReplayMiniSim(batch);
  window_misses_[i] += stats.misses;
  window_missed_bytes_[i] += stats.missed_bytes;
}

void MrcBank::FlushBatch() {
  if (batch_.empty()) {
    return;
  }
  // Counters are bumped on the calling (ingest) thread at submit time, so
  // the metrics registry stays single-writer even with async replay.
  if (m_batches_ != nullptr) {
    m_batches_->Inc();
    m_batch_requests_->Inc(batch_.size());
  }
  if (pool_ != nullptr && async_) {
    // One batch in flight at most: grid-point state persists across
    // batches, so batch N+1 must not replay before batch N finishes.
    replay_.Join();
    std::swap(batch_, replaying_);
    replay_ = pool_->Fork(grid_.size(), [this](size_t i) { ReplayGridPoint(replaying_, i); });
  } else if (pool_ != nullptr) {
    pool_->ParallelFor(grid_.size(), [this](size_t i) { ReplayGridPoint(batch_, i); });
  } else {
    for (size_t i = 0; i < grid_.size(); ++i) {
      ReplayGridPoint(batch_, i);
    }
  }
  batch_.Clear();
}

size_t MrcBank::allocated_nodes() const {
  size_t total = 0;
  for (const auto& cache : caches_) {
    total += cache->allocated_nodes();
  }
  return total;
}

WindowCurves MrcBank::EndWindow() {
  FlushBatch();
  replay_.Join();  // window counters below are written by the fan-out tasks
  WindowCurves out;
  std::vector<double> xs;
  std::vector<double> mrc_ys;
  std::vector<double> bmc_ys;
  xs.reserve(grid_.size());
  mrc_ys.reserve(grid_.size());
  bmc_ys.reserve(grid_.size());
  // One realized admission rate normalizes both curves: the sampler admits
  // ~ratio_ of objects, but on small windows the realized fraction drifts,
  // and normalizing the MRC by the realized sampled-GET count while scaling
  // the BMC by the nominal 1/ratio_ would bias the egress estimate in
  // ExpectedCostCurve. With no (sampled) GETs the rate falls back to the
  // nominal ratio, which keeps the curves at exact zero without dividing by
  // zero.
  const double realized_rate =
      (window_gets_ > 0 && window_sampled_gets_ > 0)
          ? static_cast<double>(window_sampled_gets_) / static_cast<double>(window_gets_)
          : ratio_;
  const double sampled_gets = static_cast<double>(window_sampled_gets_);
  for (size_t i = 0; i < grid_.size(); ++i) {
    xs.push_back(static_cast<double>(grid_[i]));
    const double mr =
        sampled_gets <= 0.0 ? 0.0 : static_cast<double>(window_misses_[i]) / sampled_gets;
    mrc_ys.push_back(std::min(1.0, mr));
    bmc_ys.push_back(static_cast<double>(window_missed_bytes_[i]) / realized_rate);
  }
  out.mrc = Curve(xs, std::move(mrc_ys));
  out.bmc = Curve(std::move(xs), std::move(bmc_ys));
  out.sampled_gets = window_sampled_gets_;
  out.window_requests = window_requests_;
  std::fill(window_misses_.begin(), window_misses_.end(), 0);
  std::fill(window_missed_bytes_.begin(), window_missed_bytes_.end(), 0);
  window_gets_ = 0;
  window_sampled_gets_ = 0;
  window_requests_ = 0;
  return out;
}

}  // namespace macaron
