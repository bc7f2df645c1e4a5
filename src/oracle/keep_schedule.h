// The shared core of both offline oracles (internal to src/oracle).
//
// Each oracle decides, per trace event, whether a copy of the object stays
// resident through the gap to that object's next event: the exact oracle
// by a per-object DP (exact_oracle.cc), Oracular by the §5.4 break-even
// rule (oracular.cc). Everything else follows from that keep schedule —
// which GETs hit, which events admit, the storage/egress/operation dollars,
// latency draws, and the window cost timeline — and is billed here, once.

#ifndef MACARON_SRC_ORACLE_KEEP_SCHEDULE_H_
#define MACARON_SRC_ORACLE_KEEP_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/oracle/exact_oracle.h"
#include "src/pricing/price_schedule.h"
#include "src/trace/trace.h"

namespace macaron {
namespace oracle_internal {

// Per-object event chains in CSR layout, objects in first-appearance order
// (deterministic — never iterates an unordered_map).
struct ObjectChains {
  std::vector<uint32_t> obj_of;   // object index of each trace event
  std::vector<uint32_t> offsets;  // object o's chain is events[offsets[o], offsets[o + 1])
  std::vector<uint32_t> events;   // event indices, grouped by object, in trace order
  size_t num_objects() const { return offsets.size() - 1; }
};

ObjectChains BuildObjectChains(const Trace& trace);

// Replays a non-empty `trace` in order under `keep` (keep[i] != 0: event i
// leaves its object's copy, at event i's size, resident until the object's
// next event; never set on a DELETE or on an object's last event). A GET
// hits iff its object's previous event kept; an event admits iff it keeps
// and is a PUT or a missed GET. Fills every result field but dp_total_usd.
ExactOracleResult BillKeepSchedule(const Trace& trace, const ObjectChains& chains,
                                   const std::vector<uint8_t>& keep,
                                   const PriceSchedule& sched,
                                   const ExactOracleOptions& options);

}  // namespace oracle_internal
}  // namespace macaron

#endif  // MACARON_SRC_ORACLE_KEEP_SCHEDULE_H_
