// One account's data-path dollars under a PriceSchedule (DESIGN.md "Billing
// ledger"). Each engine shard owns one and each oracle run bills its trace
// through one, so engine spend and the oracle's optimum come from the same
// code. Held bytes and cache nodes integrate between AdvanceTo calls; the
// held integral becomes capacity dollars (plus retention churn egress, for
// Replicated) only at Reprice, at the outgoing book, and at Close. Node-hours
// bill once, at Close, at the node rate: shocks only move data-path rates.

#ifndef MACARON_SRC_PRICING_LEDGER_H_
#define MACARON_SRC_PRICING_LEDGER_H_

#include <cstddef>
#include <cstdint>

#include "src/common/sim_time.h"
#include "src/pricing/cost_meter.h"
#include "src/pricing/price_book.h"
#include "src/pricing/price_schedule.h"

namespace macaron {
namespace pricing {

class Ledger {
 public:
  // Opens at `start` in the epoch in force then; `schedule` must outlive
  // the ledger. `churn_retention` > 0 bills the held bytes as turning over
  // once per retention.
  Ledger(const PriceSchedule& schedule, SimTime start, SimDuration churn_retention = 0,
         double node_per_hour = 0.0);

  // Integrates the levels in force since the last call through `t`.
  void AdvanceTo(SimTime t, double held_bytes, size_t nodes) {
    if (t <= last_) {
      return;
    }
    const double dt = static_cast<double>(t - last_);
    held_byte_ms_ += held_bytes * dt;
    node_ms_ += static_cast<double>(nodes) * dt;
    last_ = t;
  }

  void Egress(uint64_t bytes) {
    egress_bytes_ += bytes;
    costs_.Add(CostCategory::kEgress, book_->EgressCost(bytes));
  }
  void Gets(uint64_t n) { costs_.Add(CostCategory::kOperation, book_->GetCost(n)); }
  void Puts(uint64_t n) { costs_.Add(CostCategory::kOperation, book_->PutCost(n)); }
  // A batch of GETs and PUTs posted as one charge.
  void Operations(uint64_t gets, uint64_t puts) {
    costs_.Add(CostCategory::kOperation, book_->PutCost(puts) + book_->GetCost(gets));
  }

  // The next epoch's start (the maximum SimTime when none is left).
  SimTime next_epoch_start() const;
  // Bills the unflushed integrals at the outgoing book, then moves to the
  // epoch in force at `t`. Advance through `t` first.
  void Reprice(SimTime t);

  // Egress + capacity + operations through `t`, added onto `carried` (so a
  // fold over ledgers keeps one addition order): the unflushed integral is
  // extended to `t` at `held_bytes`, without advancing it, and valued at
  // the active book. Each call is a mark for Close's monotonicity check.
  double RealizedUsd(SimTime t, double held_bytes, double carried = 0.0);

  // The final flush. Checks, in every build, that the closing data-path
  // total equals the valuation just before it and that marks never
  // decreased; returns the lifetime held byte-ms. Call once.
  double Close();

  const CostMeter& costs() const { return costs_; }
  uint64_t egress_bytes() const { return egress_bytes_; }
  const PriceBook& book() const { return *book_; }

 private:
  double CapacityUsd(double byte_ms) const;
  uint64_t ChurnBytes(double byte_ms) const;
  double PostedUsd() const;  // egress + capacity + operations posted so far
  void Flush();
  void SelectEpoch(SimTime t);

  const PriceSchedule* schedule_;
  size_t epoch_ = 0;
  const PriceBook* book_ = nullptr;
  SimDuration churn_retention_;
  double node_per_hour_;
  CostMeter costs_;
  uint64_t egress_bytes_ = 0;
  SimTime last_;
  double held_byte_ms_ = 0.0;  // since the last flush
  double node_ms_ = 0.0;
  double lifetime_byte_ms_ = 0.0;  // flushed so far
  double last_mark_ = 0.0;
  bool marks_monotone_ = true;
};

}  // namespace pricing
}  // namespace macaron

#endif  // MACARON_SRC_PRICING_LEDGER_H_
