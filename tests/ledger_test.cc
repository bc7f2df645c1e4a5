// Tests for pricing::Ledger (src/pricing/ledger.h), the one dollar account
// under the engines and both oracles: a hand-computed hold / egress /
// reprice / close sequence, the realized valuation against the closed
// total, a valuation that must not advance the integral, and a price shock
// landing exactly where the held level changes.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/units.h"
#include "src/pricing/ledger.h"
#include "src/pricing/price_schedule.h"

namespace macaron {
namespace {

using pricing::Ledger;

// Round numbers so every expected dollar is computable by hand.
PriceBook HandBook() {
  PriceBook b;
  b.egress_per_gb = 0.1;
  b.object_storage_per_gb_month = 0.03;
  b.get_per_request = 1e-6;
  b.put_per_request = 1e-5;
  return b;
}

double DataPath(const CostMeter& c) {
  return c.Get(CostCategory::kEgress) + c.Get(CostCategory::kCapacity) +
         c.Get(CostCategory::kOperation);
}

TEST(LedgerTest, HandComputedHoldEgressRepriceClose) {
  PriceShock shock;
  shock.at = 10 * kDay;
  shock.egress_scale = 3.0;
  shock.storage_scale = 2.0;
  const PriceSchedule sched(HandBook(), {shock});
  Ledger l(sched, 0, /*churn_retention=*/0, /*node_per_hour=*/0.5);

  l.AdvanceTo(kDay, 0.0, 0);
  l.Egress(2 * kGB);  // $0.2
  l.Gets(1);
  l.Puts(1);
  l.AdvanceTo(5 * kDay, 1e9, 2);   // 4 GB-days, 8 node-days
  l.AdvanceTo(10 * kDay, 2e9, 0);  // 10 GB-days
  EXPECT_EQ(l.next_epoch_start(), 10 * kDay);
  l.Reprice(10 * kDay);  // 14 GB-days at $0.03 per GB-month
  EXPECT_NEAR(l.costs().Get(CostCategory::kCapacity), 14.0 / 30.0 * 0.03, 1e-15);
  EXPECT_EQ(l.book().egress_per_gb, 0.1 * 3.0);
  l.Egress(kGB);                   // $0.3 at the shocked rate
  l.AdvanceTo(16 * kDay, 3e9, 0);  // 18 GB-days at $0.06

  const double byte_ms = l.Close();
  EXPECT_DOUBLE_EQ(byte_ms, 32.0 * 1e9 * static_cast<double>(kDay));
  EXPECT_EQ(l.egress_bytes(), 3 * kGB);
  EXPECT_NEAR(l.costs().Get(CostCategory::kEgress), 0.5, 1e-15);
  EXPECT_NEAR(l.costs().Get(CostCategory::kOperation), 1e-6 + 1e-5, 1e-18);
  EXPECT_NEAR(l.costs().Get(CostCategory::kCapacity),
              14.0 / 30.0 * 0.03 + 18.0 / 30.0 * 0.06, 1e-15);
  // 192 node-hours at the node rate, which the shock never touches.
  EXPECT_NEAR(l.costs().Get(CostCategory::kClusterNodes), 192 * 0.5, 1e-12);
}

TEST(LedgerTest, RetentionChurnIsEgressOnTheHeldIntegral) {
  const PriceSchedule sched(HandBook());
  Ledger l(sched, 0, /*churn_retention=*/30 * kDay);
  l.AdvanceTo(10 * kDay, 3e9, 0);  // 3 GB for a third of the retention
  EXPECT_NEAR(l.RealizedUsd(10 * kDay, 3e9), 30.0 / 30.0 * 0.03 + 0.1, 1e-15);
  l.Close();
  EXPECT_EQ(l.egress_bytes(), kGB);
  EXPECT_NEAR(l.costs().Get(CostCategory::kEgress), 0.1, 1e-15);
}

TEST(LedgerTest, RealizedBeforeCloseEqualsClosedTotal) {
  PriceShock shock;
  shock.at = 40 * kHour;
  shock.egress_scale = 0.5;
  shock.storage_scale = 4.0;
  shock.op_scale = 2.0;
  const PriceSchedule sched(HandBook(), {shock});
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Ledger l(sched, 0);
    SimTime t = 0;
    double held = 0.0;
    for (int step = 0; step < 200; ++step) {
      t += static_cast<SimTime>(rng.NextDouble() * kHour);
      if (l.next_epoch_start() <= t) {
        l.AdvanceTo(l.next_epoch_start(), held, 0);
        l.Reprice(l.next_epoch_start());
      }
      l.AdvanceTo(t, held, 0);
      l.Egress(static_cast<uint64_t>(rng.NextDouble() * 1e8));
      l.Gets(1);
      l.Puts(step % 3 == 0 ? 1 : 0);
      held = rng.NextDouble() * 5e9;
    }
    l.AdvanceTo(t + kHour, held, 0);
    const double realized = l.RealizedUsd(t + kHour, 0.0);
    l.Close();
    EXPECT_NEAR(DataPath(l.costs()), realized, 1e-12 * realized) << "seed " << seed;
  }
}

TEST(LedgerTest, ValuationNeverAdvancesTheIntegral) {
  // Valuing at a boundary between two holds takes no integral term: the
  // closed account is bit-identical to one that was never valued, and the
  // side valuation equals the value after actually advancing.
  const PriceSchedule sched(HandBook());
  Ledger valued(sched, 0);
  Ledger plain(sched, 0);
  double at_boundary = 0.0;
  for (Ledger* l : {&valued, &plain}) {
    l->AdvanceTo(7 * kMinute, 0.0, 0);
    l->Egress(3'000'000);
    if (l == &valued) {
      for (SimTime b = 15 * kMinute; b < 30 * kDay; b += 15 * kMinute) {
        at_boundary = l->RealizedUsd(b, 3'000'000.0);
      }
    }
    l->AdvanceTo(30 * kDay, 3'000'000.0, 0);
  }
  EXPECT_EQ(valued.Close(), plain.Close());
  EXPECT_EQ(valued.costs().Get(CostCategory::kCapacity),
            plain.costs().Get(CostCategory::kCapacity));

  Ledger side(sched, 0);
  side.AdvanceTo(kDay, 2e9, 0);
  const double before = side.RealizedUsd(3 * kDay, 5e9);
  side.AdvanceTo(3 * kDay, 5e9, 0);
  EXPECT_EQ(side.RealizedUsd(3 * kDay, 0.0), before);
  EXPECT_GT(at_boundary, 0.0);
}

TEST(LedgerTest, ShockExactlyAtAHoldBoundary) {
  // The held level changes at the very instant the shock starts: the first
  // hold bills entirely at the old rate, the second entirely at the new
  // one, and a posting at that instant sees the new book.
  PriceShock shock;
  shock.at = 6 * kHour;
  shock.egress_scale = 2.0;
  shock.storage_scale = 3.0;
  const PriceBook base = HandBook();
  const PriceSchedule sched(base, {shock});
  Ledger l(sched, 0);
  l.AdvanceTo(6 * kHour, 4e9, 0);
  l.Reprice(6 * kHour);
  l.Egress(kGB);
  l.AdvanceTo(12 * kHour, 1e9, 0);
  l.Close();
  const double want = sched.StorageCostOver(4 * kGB, 0, 6 * kHour) +
                      sched.StorageCostOver(kGB, 6 * kHour, 12 * kHour);
  EXPECT_NEAR(l.costs().Get(CostCategory::kCapacity), want, 1e-15);
  EXPECT_NEAR(l.costs().Get(CostCategory::kCapacity),
              (4.0 * 6 * 0.03 + 1.0 * 6 * 0.09) / (30.0 * 24.0), 1e-15);
  EXPECT_DOUBLE_EQ(l.costs().Get(CostCategory::kEgress), base.EgressCost(kGB) * 2.0);
}

TEST(LedgerTest, OpensInTheEpochInForceAtStart) {
  PriceShock early;
  early.at = 0;
  early.egress_scale = 5.0;
  const PriceSchedule sched(HandBook(), {early});
  Ledger l(sched, 0);
  EXPECT_DOUBLE_EQ(l.book().egress_per_gb, 0.5);
  EXPECT_EQ(l.next_epoch_start(), std::numeric_limits<SimTime>::max());
  l.Egress(kGB);
  l.Close();
  EXPECT_NEAR(l.costs().Total(), 0.5, 1e-15);
}

}  // namespace
}  // namespace macaron
