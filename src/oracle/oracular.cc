#include "src/oracle/oracular.h"

#include <limits>
#include <vector>

#include "src/oracle/keep_schedule.h"

namespace macaron {

OracularResult RunOracular(const Trace& trace, const PriceBook& prices,
                           const LatencySampler* latency, uint64_t seed) {
  if (trace.size() == 0) {
    return OracularResult{};
  }
  // The break-even comparison is done in double: the exact horizon is
  // fractional milliseconds, and truncating it to an integer SimDuration
  // flipped keep/drop decisions for gaps landing exactly on the boundary.
  const double break_even_ms = prices.StorageEgressBreakEvenMs();
  const oracle_internal::ObjectChains chains = oracle_internal::BuildObjectChains(trace);

  // Walking each chain backwards, `next_get` is the time of the next GET
  // when that GET comes before any DELETE (a copy kept past a DELETE would
  // die unread). PUTs do not stop the walk: a copy kept up to a PUT is
  // billed at its own size until the PUT, and the PUT decides for itself.
  constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  std::vector<uint8_t> keep(trace.size(), 0);
  for (size_t o = 0; o < chains.num_objects(); ++o) {
    SimTime next_get = kNever;
    for (uint32_t k = chains.offsets[o + 1]; k-- > chains.offsets[o];) {
      const uint32_t j = chains.events[k];
      const Request& r = trace.requests[j];
      keep[j] = r.op != Op::kDelete && next_get != kNever &&
                static_cast<double>(next_get - r.time) < break_even_ms;
      if (r.op == Op::kGet) {
        next_get = r.time;
      } else if (r.op == Op::kDelete) {
        next_get = kNever;
      }
    }
  }

  // Perfect packing (§5.4): operations are free.
  PriceBook op_free = prices;
  op_free.get_per_request = 0.0;
  op_free.put_per_request = 0.0;
  // Oracular has no window cadence: its cost timeline is the closing entry
  // alone, and storage accrues between events only.
  ExactOracleOptions options;
  options.window = std::numeric_limits<SimDuration>::max();
  options.latency = latency;
  options.seed = seed;
  return oracle_internal::BillKeepSchedule(trace, chains, keep, PriceSchedule(op_free),
                                           options);
}

}  // namespace macaron
