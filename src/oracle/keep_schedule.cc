#include "src/oracle/keep_schedule.h"

#include <unordered_map>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/pricing/ledger.h"

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

// Global forward replay in trace order, billed through one ledger. Storage
// integrates once per gap between events (plus once at each epoch start a
// gap crosses), so the reporting window never moves a dollar. Timeline
// entries value the ledger at each window boundary without advancing it
// (boundary cost excludes events at exactly the boundary time, matching the
// engines' WindowBoundary order).
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
  double remote_only = 0.0;
  pricing::Ledger ledger(sched, trace.start_time());
  SimTime next_boundary = options.window;
  while (next_boundary <= trace.start_time()) {
    result.window_cost_timeline.emplace_back(next_boundary, 0.0);
    next_boundary += options.window;
  }

  for (size_t i = 0; i < n; ++i) {
    const Request& r = trace.requests[i];
    const uint32_t o = chains.obj_of[i];
    const double held = static_cast<double>(stored_bytes);
    // Epoch starts and boundaries due by this event, in time order; an
    // epoch starting at a boundary reprices before the boundary is valued.
    for (;;) {
      const SimTime epoch = ledger.next_epoch_start();
      if (epoch <= r.time && epoch <= next_boundary) {
        ledger.AdvanceTo(epoch, held, 0);
        ledger.Reprice(epoch);
      } else if (next_boundary <= r.time) {
        result.window_cost_timeline.emplace_back(next_boundary,
                                                 ledger.RealizedUsd(next_boundary, held));
        next_boundary += options.window;
      } else {
        break;
      }
    }
    ledger.AdvanceTo(r.time, held, 0);
    const PriceBook& book = ledger.book();
    const bool hit = r.op == Op::kGet && resident[o];
    if (r.op == Op::kGet) {
      ledger.Gets(1);
      if (hit) {
        ++result.osc_hits;
        if (options.latency != nullptr) {
          result.latency_ms.Add(options.latency->SampleMs(DataSource::kOsc, r.size, rng));
        }
      } else {
        ++result.remote_fetches;
        ledger.Egress(r.size);
        if (options.latency != nullptr) {
          result.latency_ms.Add(
              options.latency->SampleMs(DataSource::kRemoteLake, r.size, rng));
        }
      }
      remote_only += book.EgressCost(r.size) + book.GetCost(1);
    }
    if (keep[i] && !hit) {  // a PUT, or a missed GET, admits the copy it keeps
      ++result.admits;
      ledger.Puts(1);
      cached[o] = 1;
    }
    resident[o] = keep[i];
    const uint64_t now_contrib = keep[i] ? r.size : 0;
    stored_bytes += now_contrib;
    stored_bytes -= contrib[o];
    contrib[o] = now_contrib;
  }
  MACARON_CHECK(stored_bytes == 0);  // nothing is stored past an object's last event
  const double byte_ms = ledger.Close();
  result.costs = ledger.costs();
  result.egress_bytes = ledger.egress_bytes();
  result.window_cost_timeline.emplace_back(trace.end_time(), result.costs.Total());

  result.remote_only_usd = remote_only;
  result.caching_pays = remote_only - result.costs.Total() > kCrossoverEpsUsd;
  result.objects_total = num_objects;
  for (size_t o = 0; o < num_objects; ++o) {
    result.objects_cached += cached[o];
  }
  const SimDuration span = trace.duration();
  result.mean_stored_bytes = span <= 0 ? 0.0 : byte_ms / static_cast<double>(span);
  return result;
}

}  // namespace oracle_internal
}  // namespace macaron
