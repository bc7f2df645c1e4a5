// Time-varying prices: a base PriceBook plus a sequence of price shocks.
//
// Cloud providers reprice egress, storage, and request operations on
// announcement dates, not continuously; a PriceShock multiplies the active
// data-path rates at a point in simulated time. Engines and oracles both
// bill through pricing::Ledger (ledger.h), which bills its storage integral
// at the outgoing rates when an epoch starts and then moves to the new
// book. The engines reprice at window boundaries (the controller's natural
// reaction cadence), and the oracles use shocks aligned to the same
// boundaries (AlignShocksToWindows), so both sides of a regret comparison
// see identical economics. The exact oracle's DP prices each gap with
// StorageCostOver over the same epochs.
//
// Infrastructure rates (VM, cache-node, Lambda) are deliberately not
// shocked: the scenarios this models are data-price repricing events, and
// the infra fleet is billed by the engines at rates every epoch shares.

#ifndef MACARON_SRC_PRICING_PRICE_SCHEDULE_H_
#define MACARON_SRC_PRICING_PRICE_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"
#include "src/pricing/price_book.h"

namespace macaron {

// One repricing event: at simulated time `at`, scale the active egress,
// storage-capacity, and per-request operation rates. Scales compose
// multiplicatively with earlier shocks. All-1.0 scales are a no-op.
struct PriceShock {
  SimTime at = 0;
  double egress_scale = 1.0;
  double storage_scale = 1.0;  // object storage, DRAM, and flash capacity
  double op_scale = 1.0;       // GET and PUT request prices
};

// Returns `base` with one shock's scales applied.
PriceBook ApplyPriceShock(const PriceBook& base, const PriceShock& shock);

// Piecewise-constant price timeline: epoch 0 is the base book from the
// beginning of time; each shock (sorted by `at`, ties composing in input
// order) starts a new epoch. Lookup is O(log epochs); integration over an
// interval visits only the epochs it crosses.
class PriceSchedule {
 public:
  explicit PriceSchedule(const PriceBook& base,
                         const std::vector<PriceShock>& shocks = {});

  // The active book at time t.
  const PriceBook& At(SimTime t) const;

  // Exact storage cost of holding `bytes` over [from, to): the sum of each
  // crossed epoch's rate times its overlap with the interval.
  double StorageCostOver(uint64_t bytes, SimTime from, SimTime to) const;

  size_t num_epochs() const { return books_.size(); }
  SimTime epoch_start(size_t i) const { return starts_[i]; }
  const PriceBook& epoch_book(size_t i) const { return books_[i]; }
  bool constant() const { return books_.size() == 1; }

 private:
  std::vector<SimTime> starts_;  // starts_[0] is the minimum SimTime
  std::vector<PriceBook> books_;
};

// Shock times as the engines actually apply them: the first window boundary
// (multiple of `window`) at or after `shock.at`. Scoring an engine run
// against the exact oracle must use these aligned times on both sides.
std::vector<PriceShock> AlignShocksToWindows(const std::vector<PriceShock>& shocks,
                                             SimDuration window);

}  // namespace macaron

#endif  // MACARON_SRC_PRICING_PRICE_SCHEDULE_H_
