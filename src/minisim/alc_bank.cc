#include "src/minisim/alc_bank.h"

#include <algorithm>

#include "src/common/check.h"

namespace macaron {

namespace {
constexpr size_t kPrefetchAhead = 8;  // see ReplayKernel (eviction_policy.cc)
}  // namespace

AlcBank::AlcBank(std::vector<uint64_t> cluster_grid, uint64_t osc_capacity, double ratio,
                 uint64_t salt, const LatencySampler* latency, uint64_t seed)
    : grid_(std::move(cluster_grid)),
      ratio_(ratio),
      feed_(this, grid_.size(), ratio, salt, latency, seed) {
  MACARON_CHECK(!grid_.empty());
  MACARON_CHECK(latency != nullptr);
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

void AlcBank::SetOscCapacity(uint64_t osc_capacity) {
  // Resizing applies from this point in the stream: replay what came before
  // (and wait for it — the in-flight fan-out reads the L2s being resized).
  feed_.Drain();
  const uint64_t mini_osc = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(osc_capacity) * ratio_));
  for (Level& level : levels_) {
    level.osc.Resize(mini_osc);
  }
}

void AlcBank::ReplayGridPoint(const SampledBatch& b, size_t i) {
  Level& level = levels_[i];
  const ReplayBatch& rows = b.rows;
  const size_t n = rows.size();
  for (size_t k = 0; k < n; ++k) {
    if (k + kPrefetchAhead < n) {
      // Cluster level only: every request probes it, while the OSC level
      // is reached on cluster misses. Prefetching both indexes here was
      // measurably slower — the extra stream evicts more than it hides.
      level.cluster.PrefetchPrehashed(rows.hashes[k + kPrefetchAhead]);
    }
    const ObjectId id = rows.ids[k];
    const uint64_t hash = rows.hashes[k];
    const uint64_t size = rows.sizes[k];
    const SimTime time = rows.times[k];
    switch (rows.ops[k]) {
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

size_t AlcBank::allocated_nodes() {
  feed_.Join();
  size_t total = 0;
  for (const Level& level : levels_) {
    total += level.cluster.allocated_nodes() + level.osc.allocated_nodes();
  }
  return total;
}

AlcWindow AlcBank::EndWindow() {
  feed_.EndWindow();  // joins the replays that write the level sums and counters
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
  return out;
}

}  // namespace macaron
