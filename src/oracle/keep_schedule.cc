#include "src/oracle/keep_schedule.h"

#include <unordered_map>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace macaron {
namespace oracle_internal {

namespace {

// Dollar tolerance for the crossover test: guards against last-ulp summation
// differences between the meter total and the remote-only accumulator when
// the optimum never caches (the two are then mathematically equal).
constexpr double kCrossoverEpsUsd = 1e-9;

}  // namespace

ObjectChains BuildObjectChains(const Trace& trace) {
  const size_t n = trace.size();
  ObjectChains c;
  std::unordered_map<ObjectId, uint32_t> index;
  index.reserve(n);
  c.obj_of.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const auto [it, inserted] =
        index.try_emplace(trace.requests[i].id, static_cast<uint32_t>(index.size()));
    c.obj_of[i] = it->second;
  }
  const size_t num_objects = index.size();
  std::vector<uint32_t> counts(num_objects, 0);
  for (size_t i = 0; i < n; ++i) {
    ++counts[c.obj_of[i]];
  }
  c.offsets.assign(num_objects + 1, 0);
  for (size_t o = 0; o < num_objects; ++o) {
    c.offsets[o + 1] = c.offsets[o] + counts[o];
  }
  c.events.resize(n);
  std::vector<uint32_t> cursor(c.offsets.begin(), c.offsets.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    c.events[cursor[c.obj_of[i]]++] = static_cast<uint32_t>(i);
  }
  return c;
}

// Global forward replay in trace order. Produces the authoritative
// CostMeter, counters, latency samples, and the cumulative cost timeline at
// window boundaries (boundary cost excludes events at exactly the boundary
// time, matching the engines' WindowBoundary order).
ExactOracleResult BillKeepSchedule(const Trace& trace, const ObjectChains& chains,
                                   const std::vector<uint8_t>& keep,
                                   const PriceSchedule& sched,
                                   const ExactOracleOptions& options) {
  ExactOracleResult result;
  const size_t n = trace.size();
  const size_t num_objects = chains.num_objects();
  Rng rng(options.seed);
  std::vector<uint64_t> contrib(num_objects, 0);
  std::vector<uint8_t> resident(num_objects, 0);
  std::vector<uint8_t> cached(num_objects, 0);
  uint64_t stored_bytes = 0;
  double byte_time = 0.0;
  double remote_only = 0.0;
  SimTime cursor = trace.start_time();
  SimTime next_boundary = options.window;
  while (next_boundary <= cursor) {
    result.window_cost_timeline.emplace_back(next_boundary, 0.0);
    next_boundary += options.window;
  }

  const auto accrue_to = [&](SimTime to) {
    if (to > cursor) {
      if (stored_bytes > 0) {
        result.costs.Add(CostCategory::kCapacity,
                         sched.StorageCostOver(stored_bytes, cursor, to));
        byte_time += static_cast<double>(stored_bytes) * static_cast<double>(to - cursor);
      }
      cursor = to;
    }
  };

  for (size_t i = 0; i < n; ++i) {
    const Request& r = trace.requests[i];
    const uint32_t o = chains.obj_of[i];
    while (next_boundary <= r.time) {
      accrue_to(next_boundary);
      result.window_cost_timeline.emplace_back(next_boundary, result.costs.Total());
      next_boundary += options.window;
    }
    accrue_to(r.time);
    const PriceBook& book = sched.At(r.time);
    const bool hit = r.op == Op::kGet && resident[o];
    if (r.op == Op::kGet) {
      result.costs.Add(CostCategory::kOperation, book.GetCost(1));
      if (hit) {
        ++result.osc_hits;
        if (options.latency != nullptr) {
          result.latency_ms.Add(options.latency->SampleMs(DataSource::kOsc, r.size, rng));
        }
      } else {
        ++result.remote_fetches;
        result.egress_bytes += r.size;
        result.costs.Add(CostCategory::kEgress, book.EgressCost(r.size));
        if (options.latency != nullptr) {
          result.latency_ms.Add(
              options.latency->SampleMs(DataSource::kRemoteLake, r.size, rng));
        }
      }
      remote_only += book.EgressCost(r.size) + book.GetCost(1);
    }
    if (keep[i] && !hit) {  // a PUT, or a missed GET, admits the copy it keeps
      ++result.admits;
      result.costs.Add(CostCategory::kOperation, book.PutCost(1));
      cached[o] = 1;
    }
    resident[o] = keep[i];
    const uint64_t now_contrib = keep[i] ? r.size : 0;
    stored_bytes += now_contrib;
    stored_bytes -= contrib[o];
    contrib[o] = now_contrib;
  }
  MACARON_CHECK(stored_bytes == 0);  // nothing is stored past an object's last event
  result.window_cost_timeline.emplace_back(trace.end_time(), result.costs.Total());

  result.remote_only_usd = remote_only;
  result.caching_pays = remote_only - result.costs.Total() > kCrossoverEpsUsd;
  result.objects_total = num_objects;
  for (size_t o = 0; o < num_objects; ++o) {
    result.objects_cached += cached[o];
  }
  const SimDuration span = trace.duration();
  result.mean_stored_bytes = span <= 0 ? 0.0 : byte_time / static_cast<double>(span);
  return result;
}

}  // namespace oracle_internal
}  // namespace macaron
