#include "src/minisim/mrc_bank.h"

#include <algorithm>

#include "src/common/check.h"

namespace macaron {

MrcBank::MrcBank(std::vector<uint64_t> grid, double ratio, uint64_t salt,
                 EvictionPolicyKind policy)
    : grid_(std::move(grid)), ratio_(ratio), feed_(this, grid_.size(), ratio, salt) {
  MACARON_CHECK(!grid_.empty());
  MACARON_CHECK(std::is_sorted(grid_.begin(), grid_.end()));
  caches_.reserve(grid_.size());
  for (uint64_t capacity : grid_) {
    const uint64_t mini = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(capacity) * ratio_));
    caches_.push_back(MakeEvictionCache(policy, mini));
  }
  window_misses_.assign(grid_.size(), 0);
  window_missed_bytes_.assign(grid_.size(), 0);
}

void MrcBank::ReplayGridPoint(const SampledBatch& batch, size_t i) {
  // The policy's prehashed SoA kernel (one virtual call per batch, then a
  // devirtualized loop). Stats accumulate locally and write back once per
  // batch: grid points run on pool threads, and neighboring window_misses_
  // slots share cache lines.
  const EvictionCache::MiniSimStats stats = caches_[i]->ReplayMiniSim(batch.rows);
  window_misses_[i] += stats.misses;
  window_missed_bytes_[i] += stats.missed_bytes;
}

size_t MrcBank::allocated_nodes() {
  feed_.Join();
  size_t total = 0;
  for (const auto& cache : caches_) {
    total += cache->allocated_nodes();
  }
  return total;
}

WindowCurves MrcBank::EndWindow() {
  const FeedWindow window = feed_.EndWindow();  // joins the replays that write the counters
  WindowCurves out;
  std::vector<double> xs;
  std::vector<double> mrc_ys;
  std::vector<double> bmc_ys;
  xs.reserve(grid_.size());
  mrc_ys.reserve(grid_.size());
  bmc_ys.reserve(grid_.size());
  const double sampled_gets = static_cast<double>(window.sampled_gets);
  for (size_t i = 0; i < grid_.size(); ++i) {
    xs.push_back(static_cast<double>(grid_[i]));
    const double mr =
        sampled_gets <= 0.0 ? 0.0 : static_cast<double>(window_misses_[i]) / sampled_gets;
    mrc_ys.push_back(std::min(1.0, mr));
    bmc_ys.push_back(static_cast<double>(window_missed_bytes_[i]) / window.realized_rate);
  }
  out.mrc = Curve(xs, std::move(mrc_ys));
  out.bmc = Curve(std::move(xs), std::move(bmc_ys));
  out.sampled_gets = window.sampled_gets;
  out.window_requests = window.requests;
  std::fill(window_misses_.begin(), window_misses_.end(), 0);
  std::fill(window_missed_bytes_.begin(), window_missed_bytes_.end(), 0);
  return out;
}

}  // namespace macaron
