#include "src/pricing/ledger.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace macaron {
namespace pricing {

// Relative slack for Close's checks: a flush re-associates one sum, which
// moves the last bits and nothing more.
constexpr double kRelTolerance = 1e-9;

Ledger::Ledger(const PriceSchedule& schedule, SimTime start, SimDuration churn_retention,
               double node_per_hour)
    : schedule_(&schedule),
      churn_retention_(churn_retention),
      node_per_hour_(node_per_hour),
      last_(start) {
  SelectEpoch(start);
}

SimTime Ledger::next_epoch_start() const {
  return epoch_ + 1 < schedule_->num_epochs() ? schedule_->epoch_start(epoch_ + 1)
                                              : std::numeric_limits<SimTime>::max();
}

// The one byte-ms -> dollars conversion.
double Ledger::CapacityUsd(double byte_ms) const {
  const double gb_months = byte_ms / 1.0e9 / static_cast<double>(kBillingMonth);
  return gb_months * book_->object_storage_per_gb_month;
}

uint64_t Ledger::ChurnBytes(double byte_ms) const {
  return static_cast<uint64_t>(byte_ms / static_cast<double>(churn_retention_));
}

double Ledger::PostedUsd() const {
  return costs_.Get(CostCategory::kEgress) + costs_.Get(CostCategory::kCapacity) +
         costs_.Get(CostCategory::kOperation);
}

void Ledger::Flush() {
  costs_.Add(CostCategory::kCapacity, CapacityUsd(held_byte_ms_));
  if (churn_retention_ > 0) {
    Egress(ChurnBytes(held_byte_ms_));
  }
  lifetime_byte_ms_ += held_byte_ms_;
  held_byte_ms_ = 0.0;
}

void Ledger::SelectEpoch(SimTime t) {
  while (epoch_ + 1 < schedule_->num_epochs() && schedule_->epoch_start(epoch_ + 1) <= t) {
    ++epoch_;
  }
  book_ = &schedule_->epoch_book(epoch_);
}

void Ledger::Reprice(SimTime t) {
  Flush();
  SelectEpoch(t);
}

double Ledger::RealizedUsd(SimTime t, double held_bytes, double carried) {
  const double posted = PostedUsd();
  const double byte_ms =
      t > last_ ? held_byte_ms_ + held_bytes * static_cast<double>(t - last_) : held_byte_ms_;
  double pending = CapacityUsd(byte_ms);
  if (churn_retention_ > 0) {
    pending += book_->EgressCost(ChurnBytes(byte_ms));
  }
  const double mark = posted + pending;
  marks_monotone_ = marks_monotone_ && mark >= last_mark_ * (1.0 - kRelTolerance);
  last_mark_ = mark;
  return carried + posted + pending;
}

double Ledger::Close() {
  const double realized = RealizedUsd(last_, 0.0);
  Flush();
  costs_.Add(CostCategory::kClusterNodes, node_ms_ / static_cast<double>(kHour) * node_per_hour_);
  const double closed = PostedUsd();
  MACARON_CHECK(std::abs(closed - realized) <= kRelTolerance * std::max(closed, realized));
  MACARON_CHECK(marks_monotone_);
  return lifetime_byte_ms_;
}

}  // namespace pricing
}  // namespace macaron
