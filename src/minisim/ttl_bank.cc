#include "src/minisim/ttl_bank.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/obs/metrics.h"

namespace macaron {

namespace {
constexpr size_t kBatchCapacity = 4096;  // sampled requests per replay fan-out
constexpr size_t kPrefetchAhead = 8;     // see ReplayKernel (eviction_policy.cc)
}  // namespace

std::vector<SimDuration> StandardTtlGrid(SimDuration max_ttl) {
  std::vector<SimDuration> grid;
  grid.push_back(1 * kHour);
  if (max_ttl >= 6 * kHour) {
    grid.push_back(6 * kHour);
  }
  for (SimDuration t = 12 * kHour; t <= max_ttl; t += 12 * kHour) {
    grid.push_back(t);
  }
  if (grid.back() < max_ttl) {
    grid.push_back(max_ttl);
  }
  return grid;
}

TtlBank::TtlBank(std::vector<SimDuration> ttl_grid, double ratio, uint64_t salt)
    : grid_(std::move(ttl_grid)), ratio_(ratio), sampler_(ratio, salt) {
  MACARON_CHECK(!grid_.empty());
  MACARON_CHECK(std::is_sorted(grid_.begin(), grid_.end()));
  MACARON_CHECK(ratio_ > 0.0 && ratio_ <= 1.0);
  batch_.Reserve(kBatchCapacity);
  replaying_.Reserve(kBatchCapacity);
  entries_.reserve(grid_.size());
  for (SimDuration ttl : grid_) {
    entries_.push_back(Entry{TtlCache(ttl), 0, 0, 0.0, 0});
  }
}

TtlBank::~TtlBank() {
  // Async fan-out tasks reference this bank; never let it die before them.
  replay_.Join();
}

void TtlBank::Advance(Entry& e, SimTime now) {
  if (now > e.last_update) {
    // Integrate resident bytes over [last_update, now). Expiry within the
    // interval is applied first at its effective boundary by TtlCache's
    // lazy Expire; the integral uses the pre-expiry value which slightly
    // overestimates — acceptable at window granularity, and symmetric
    // across TTLs.
    e.cache.Expire(now);
    e.byte_time += static_cast<double>(e.cache.used_bytes()) *
                   static_cast<double>(now - e.last_update);
    e.last_update = now;
  }
}

void TtlBank::Process(const Request& r) {
  ++window_requests_;
  if (r.op == Op::kGet) {
    ++window_gets_;
  }
  last_time_ = r.time;
  // One hash for admission and for every candidate TTL's mini-cache index
  // (SHARDS hash reuse; see sampler.h).
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

void TtlBank::ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end) {
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
  last_time_ = chunk.times[end - 1];
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

void TtlBank::ReplayGridPoint(const ReplayBatch& batch, size_t i) {
  Entry& e = entries_[i];
  const size_t n = batch.size();
  for (size_t k = 0; k < n; ++k) {
    if (k + kPrefetchAhead < n) {
      e.cache.PrefetchPrehashed(batch.hashes[k + kPrefetchAhead]);
    }
    const ObjectId id = batch.ids[k];
    const uint64_t hash = batch.hashes[k];
    const SimTime time = batch.times[k];
    Advance(e, time);
    switch (batch.ops[k]) {
      case Op::kGet:
        if (!e.cache.GetPrehashed(id, hash, time)) {
          ++e.misses;
          e.missed_bytes += batch.sizes[k];
          e.cache.PutPrehashed(id, hash, batch.sizes[k], time);
        }
        break;
      case Op::kPut:
        e.cache.PutPrehashed(id, hash, batch.sizes[k], time);
        break;
      case Op::kDelete:
        e.cache.ErasePrehashed(id, hash);
        break;
    }
  }
}

void TtlBank::FlushBatch() {
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

size_t TtlBank::allocated_nodes() const {
  size_t total = 0;
  for (const Entry& e : entries_) {
    total += e.cache.allocated_nodes();
  }
  return total;
}

TtlWindowCurves TtlBank::EndWindow(SimDuration window) {
  MACARON_CHECK(window > 0);
  FlushBatch();
  replay_.Join();  // entry counters below are written by the fan-out tasks
  TtlWindowCurves out;
  std::vector<double> xs;
  std::vector<double> mrc_ys;
  std::vector<double> bmc_ys;
  std::vector<double> cap_ys;
  const SimTime window_end = window_start_ + window;
  // Same realized-admission-rate normalization as MrcBank::EndWindow: one
  // rate for the MRC, BMC, and capacity curve so the estimators stay
  // consistent when the sampler under/over-admits on a small window.
  const double realized_rate =
      (window_gets_ > 0 && window_sampled_gets_ > 0)
          ? static_cast<double>(window_sampled_gets_) / static_cast<double>(window_gets_)
          : ratio_;
  const double sampled_gets = static_cast<double>(window_sampled_gets_);
  for (size_t i = 0; i < grid_.size(); ++i) {
    Entry& e = entries_[i];
    Advance(e, window_end);
    xs.push_back(static_cast<double>(grid_[i]));
    const double mr =
        sampled_gets <= 0.0 ? 0.0 : static_cast<double>(e.misses) / sampled_gets;
    mrc_ys.push_back(std::min(1.0, mr));
    bmc_ys.push_back(static_cast<double>(e.missed_bytes) / realized_rate);
    cap_ys.push_back(e.byte_time / static_cast<double>(window) / realized_rate);
    e.misses = 0;
    e.missed_bytes = 0;
    e.byte_time = 0.0;
  }
  out.mrc = Curve(xs, std::move(mrc_ys));
  out.bmc = Curve(xs, std::move(bmc_ys));
  out.capacity = Curve(std::move(xs), std::move(cap_ys));
  out.sampled_gets = window_sampled_gets_;
  out.window_requests = window_requests_;
  window_gets_ = 0;
  window_sampled_gets_ = 0;
  window_requests_ = 0;
  window_start_ = window_end;
  return out;
}

}  // namespace macaron
