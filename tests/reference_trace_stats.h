// The map-based TraceStatsBuilder that the flat, page-backed builder in
// src/trace/trace.cc replaced, kept verbatim as a differential reference:
// one std::unordered_map for first sizes, one for GET counts, and an ordered
// std::map size histogram for the exact median. trace_test replays seeded
// and adversarial request sequences through both and asserts bit-identical
// TraceStats. Nothing in the simulator proper uses this class. Do not "fix"
// or optimize it: its value is being a faithful copy of the old semantics.

#ifndef MACARON_TESTS_REFERENCE_TRACE_STATS_H_
#define MACARON_TESTS_REFERENCE_TRACE_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/trace/trace.h"

namespace macaron {

class ReferenceTraceStatsBuilder {
 public:
  void Add(const Request& r) {
    if (!any_) {
      first_time_ = r.time;
      any_ = true;
    }
    last_time_ = r.time;
    ++s_.num_requests;
    ++size_counts_[r.size];
    switch (r.op) {
      case Op::kGet: {
        ++s_.num_gets;
        s_.get_bytes += r.size;
        auto [it, inserted] = sizes_.try_emplace(r.id, r.size);
        if (inserted) {
          s_.unique_bytes += r.size;
          s_.unique_get_bytes += r.size;
        }
        get_freq_[r.id]++;
        break;
      }
      case Op::kPut: {
        ++s_.num_puts;
        s_.put_bytes += r.size;
        auto [it, inserted] = sizes_.try_emplace(r.id, r.size);
        if (inserted) {
          s_.unique_bytes += r.size;
        }
        break;
      }
      case Op::kDelete:
        ++s_.num_deletes;
        break;
    }
  }

  TraceStats Finish() const {
    TraceStats s = s_;
    s.unique_objects = sizes_.size();
    s.compulsory_miss_ratio =
        s.get_bytes == 0
            ? 0.0
            : static_cast<double>(s.unique_get_bytes) / static_cast<double>(s.get_bytes);
    s.zipf_alpha = FitZipfAlpha(get_freq_);
    const SimDuration span = last_time_ - first_time_;
    s.mean_request_rate =
        span <= 0 ? 0.0 : static_cast<double>(s.num_requests) / DurationSeconds(span);
    if (s.num_requests > 0) {
      const uint64_t mid = s.num_requests / 2;
      uint64_t cum = 0;
      for (const auto& [size, count] : size_counts_) {
        cum += count;
        if (cum > mid) {
          s.median_object_bytes = size;
          break;
        }
      }
    }
    return s;
  }

 private:
  static double FitZipfAlpha(const std::unordered_map<ObjectId, uint64_t>& freq) {
    std::vector<uint64_t> counts;
    counts.reserve(freq.size());
    for (const auto& [id, c] : freq) {
      counts.push_back(c);
    }
    std::sort(counts.begin(), counts.end(), std::greater<>());
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    size_t n = 0;
    for (size_t rank = 0; rank < counts.size(); ++rank) {
      if (counts[rank] < 2) {
        break;
      }
      const double x = std::log(static_cast<double>(rank + 1));
      const double y = std::log(static_cast<double>(counts[rank]));
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
      ++n;
    }
    if (n < 8) {
      return 0.0;
    }
    const double nd = static_cast<double>(n);
    const double denom = nd * sxx - sx * sx;
    if (denom <= 0.0) {
      return 0.0;
    }
    const double slope = (nd * sxy - sx * sy) / denom;
    return std::max(0.0, -slope);
  }

  TraceStats s_;
  std::unordered_map<ObjectId, uint64_t> sizes_;
  std::unordered_map<ObjectId, uint64_t> get_freq_;
  std::map<uint64_t, uint64_t> size_counts_;
  SimTime first_time_ = 0;
  SimTime last_time_ = 0;
  bool any_ = false;
};

}  // namespace macaron

#endif  // MACARON_TESTS_REFERENCE_TRACE_STATS_H_
