// Oracular: the offline optimal comparator (§5.4).
//
// With complete future knowledge and an elastic cache, the optimal policy is
// per-access: keep an object in the OSC until its next access if and only if
// storing it that long costs less than re-fetching it (storage-vs-egress
// break-even; 116 days cross-cloud, 26 days cross-region). There are no
// forced evictions and, per the paper, operation costs are assumed zero
// (perfect packing); infrastructure costs are also excluded (idealized
// benchmark).
//
// The rule only chooses the keep schedule; the exact oracle's replay
// (exact_oracle.h) bills it, with GET/PUT prices zeroed. Under that op-free
// basket the exact optimum is never above Oracular.

#ifndef MACARON_SRC_ORACLE_ORACULAR_H_
#define MACARON_SRC_ORACLE_ORACULAR_H_

#include <cstdint>

#include "src/cloudsim/latency.h"
#include "src/oracle/exact_oracle.h"
#include "src/pricing/price_book.h"
#include "src/trace/trace.h"

namespace macaron {

// Both oracles produce the same result type. Oracular leaves dp_total_usd
// at 0, and its window_cost_timeline holds only the closing entry.
using OracularResult = ExactOracleResult;

// Runs the §5.4 rule over `trace` under `prices` (operation prices
// ignored). If `latency` is non-null, per-access latencies are sampled
// (hits from the OSC, misses remote).
OracularResult RunOracular(const Trace& trace, const PriceBook& prices,
                           const LatencySampler* latency, uint64_t seed);

}  // namespace macaron

#endif  // MACARON_SRC_ORACLE_ORACULAR_H_
