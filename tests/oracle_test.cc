// Tests for the offline optimal comparators: Oracular (§5.4) and the
// dollar-exact per-object DP oracle (src/oracle/exact_oracle.h), which share
// one keep-schedule replay. The DP is pinned exact by a brute-force
// enumerator over every feasible per-gap keep schedule on fixture-sized
// traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/decision_trace.h"
#include "src/oracle/exact_oracle.h"
#include "src/oracle/oracular.h"
#include "src/sim/replay_engine.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

PriceBook CrossCloud() { return PriceBook::Aws(DeploymentScenario::kCrossCloud); }

// A PriceBook under §5.4's perfect-packing assumption: operation prices
// zeroed, so Oracular and the DP bill the same basket.
PriceBook OpFree(PriceBook book) {
  book.get_per_request = 0.0;
  book.put_per_request = 0.0;
  return book;
}

TEST(OracularTest, EmptyTrace) {
  const OracularResult r = RunOracular(Trace{}, CrossCloud(), nullptr, 1);
  EXPECT_EQ(r.costs.Total(), 0.0);
}

TEST(OracularTest, SingleAccessPaysEgressOnly) {
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}};
  const OracularResult r = RunOracular(t, CrossCloud(), nullptr, 1);
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 0u);
  EXPECT_NEAR(r.costs.Get(CostCategory::kEgress), 0.09, 1e-9);
  EXPECT_EQ(r.costs.Get(CostCategory::kCapacity), 0.0);  // never stored
}

TEST(OracularTest, QuickReaccessIsStoredAndHits) {
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}, {kHour, 1, 1'000'000'000, Op::kGet}};
  const OracularResult r = RunOracular(t, CrossCloud(), nullptr, 1);
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 1u);
  // Storage for one hour is far cheaper than a second egress.
  EXPECT_LT(r.costs.Get(CostCategory::kCapacity), 0.09);
}

TEST(OracularTest, ReaccessBeyondBreakEvenIsRefetched) {
  const SimDuration far = CrossCloud().StorageEgressBreakEven() + kDay;
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}, {far, 1, 1'000'000'000, Op::kGet}};
  const OracularResult r = RunOracular(t, CrossCloud(), nullptr, 1);
  EXPECT_EQ(r.remote_fetches, 2u);
  EXPECT_EQ(r.costs.Get(CostCategory::kCapacity), 0.0);
}

TEST(OracularTest, CrossRegionBreakEvenIsShorter) {
  // 30 days between accesses: cheaper to store cross-cloud (116d break-even)
  // but cheaper to refetch cross-region (26d break-even).
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}, {30 * kDay, 1, 1'000'000'000, Op::kGet}};
  const OracularResult cc = RunOracular(t, CrossCloud(), nullptr, 1);
  const OracularResult cr =
      RunOracular(t, PriceBook::Aws(DeploymentScenario::kCrossRegion), nullptr, 1);
  EXPECT_EQ(cc.remote_fetches, 1u);
  EXPECT_EQ(cr.remote_fetches, 2u);
}

TEST(OracularTest, PutThenReadHitsWithoutEgress) {
  Trace t;
  t.requests = {{0, 1, 1'000'000, Op::kPut}, {kHour, 1, 1'000'000, Op::kGet}};
  const OracularResult r = RunOracular(t, CrossCloud(), nullptr, 1);
  EXPECT_EQ(r.remote_fetches, 0u);
  EXPECT_EQ(r.osc_hits, 1u);
  EXPECT_EQ(r.costs.Get(CostCategory::kEgress), 0.0);
}

TEST(OracularTest, DeleteBeforeNextGetMeansNoStorage) {
  Trace t;
  t.requests = {{0, 1, 1'000'000, Op::kGet},
                {kHour, 1, 1'000'000, Op::kDelete},
                {2 * kHour, 1, 1'000'000, Op::kGet}};
  const OracularResult r = RunOracular(t, CrossCloud(), nullptr, 1);
  // Both GETs are remote: storing until a deletion has no value, and the
  // post-delete GET sees a fresh object.
  EXPECT_EQ(r.remote_fetches, 2u);
  EXPECT_EQ(r.costs.Get(CostCategory::kCapacity), 0.0);
}

TEST(OracularTest, RewrittenCopyBilledAtItsOwnSize) {
  // GET 1 GB, PUT 3 GB an hour later, GET an hour after that. The rule
  // keeps the 1 GB copy until the PUT and the 3 GB copy until the GET; a
  // keep decision used to be billed at the keeping event's size all the
  // way to the next GET, which put Oracular below the exact optimum.
  const uint64_t gb = 1'000'000'000;
  Trace t;
  t.requests = {{0, 1, gb, Op::kGet},
                {kHour, 1, 3 * gb, Op::kPut},
                {2 * kHour, 1, 3 * gb, Op::kGet}};
  const PriceBook book = CrossCloud();
  const OracularResult r = RunOracular(t, book, nullptr, 1);
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 1u);
  EXPECT_NEAR(r.costs.Get(CostCategory::kCapacity),
              book.StorageCost(gb, kHour) + book.StorageCost(3 * gb, kHour), 1e-15);
  EXPECT_LE(RunExactOracle(t, OpFree(book)).costs.Total(), r.costs.Total());
}

TEST(OracularTest, NoOperationCosts) {
  Trace t;
  for (int i = 0; i < 100; ++i) {
    t.requests.push_back({i * kMinute, static_cast<ObjectId>(i % 5), 1'000'000, Op::kGet});
  }
  const OracularResult r = RunOracular(t, CrossCloud(), nullptr, 1);
  EXPECT_EQ(r.costs.Get(CostCategory::kOperation), 0.0);
  EXPECT_EQ(r.costs.Get(CostCategory::kInfra), 0.0);
}

TEST(OracularTest, LatencyMeasuredWhenSamplerProvided) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 2);
  Trace t;
  t.requests = {{0, 1, 1000, Op::kGet}, {kMinute, 1, 1000, Op::kGet}};
  const OracularResult r = RunOracular(t, CrossCloud(), &gen, 3);
  EXPECT_EQ(r.latency_ms.count(), 2u);
  // Second access (OSC hit) should usually be faster than the remote fetch.
  EXPECT_LT(r.latency_ms.samples()[1], r.latency_ms.samples()[0]);
}

TEST(OracularTest, NeverCostsMoreEgressThanRemote) {
  // Property: oracle egress <= total GET bytes (each byte fetched at most
  // once per break-even window).
  const Trace t = GenerateTrace(ProfileByName("ibm18"));
  const OracularResult r = RunOracular(t, CrossCloud(), nullptr, 4);
  const TraceStats s = ComputeStats(t);
  EXPECT_LE(r.egress_bytes, s.get_bytes);
  // And at least the compulsory bytes must be fetched.
  EXPECT_GE(r.egress_bytes, s.unique_get_bytes);
}

TEST(OracularTest, MeanStoredBytesPositiveForReuseHeavyTrace) {
  const Trace t = GenerateTrace(ProfileByName("ibm12"));
  const OracularResult r = RunOracular(t, CrossCloud(), nullptr, 5);
  EXPECT_GT(r.mean_stored_bytes, 0.0);
  const TraceStats s = ComputeStats(t);
  EXPECT_LT(r.mean_stored_bytes, static_cast<double>(s.unique_bytes) * 1.01);
}

// ---------------------------------------------------------------------------
// Exact oracle (per-object interval DP).

// Independent reference: enumerate every feasible storage schedule — one
// outgoing stored/not-stored bit per event per object, storing after a
// DELETE prohibited — and return the cheapest total. Exponential in chain
// length; fixture-sized traces only.
double BruteForceOptimum(const Trace& trace, const PriceBook& prices,
                         const std::vector<PriceShock>& shocks = {},
                         SimDuration window = 15 * kMinute) {
  const PriceSchedule sched(prices, AlignShocksToWindows(shocks, window));
  std::map<ObjectId, std::vector<size_t>> chains;
  for (size_t i = 0; i < trace.size(); ++i) {
    chains[trace.requests[i].id].push_back(i);
  }
  double total = 0.0;
  for (const auto& [id, ev] : chains) {
    const size_t k = ev.size();
    double best = std::numeric_limits<double>::infinity();
    for (uint64_t mask = 0; mask < (1ull << k); ++mask) {
      double cost = 0.0;
      bool feasible = true;
      bool in_stored = false;
      for (size_t j = 0; j < k && feasible; ++j) {
        const Request& r = trace.requests[ev[j]];
        const PriceBook& book = sched.At(r.time);
        const bool out_stored = (mask >> j) & 1;
        if (in_stored) {
          const Request& prev = trace.requests[ev[j - 1]];
          cost += sched.StorageCostOver(prev.size, prev.time, r.time);
        }
        switch (r.op) {
          case Op::kGet:
            cost += book.GetCost(1);
            if (!in_stored) {
              cost += book.EgressCost(r.size);
              if (out_stored) {
                cost += book.PutCost(1);  // admission
              }
            }
            break;
          case Op::kPut:
            if (out_stored) {
              cost += book.PutCost(1);
            }
            break;
          case Op::kDelete:
            if (out_stored) {
              feasible = false;  // the object no longer exists
            }
            break;
        }
        in_stored = out_stored;
      }
      if (feasible && cost < best) {
        best = cost;
      }
    }
    total += best;
  }
  return total;
}

// Small random trace with PUTs and DELETEs; gaps span hours to months so
// keep/drop decisions land on both sides of every break-even. With
// `size_per_id`, every event of an object carries the same size.
Trace RandomSmallTrace(uint64_t seed, int num_events, uint64_t num_objects,
                       bool size_per_id = false) {
  Rng rng(seed);
  Trace t;
  t.name = "bf-random";
  SimTime time = 0;
  for (int i = 0; i < num_events; ++i) {
    time += static_cast<SimTime>(rng.NextBounded(40 * kDay));
    Request r;
    r.time = time;
    // Skewed popularity: nested bound approximates a Zipf head.
    r.id = 1 + rng.NextBounded(rng.NextBounded(num_objects) + 1);
    r.size = 100'000 + rng.NextBounded(50'000'000);
    if (size_per_id) {
      r.size = 100'000 + r.id * 7'654'321 % 50'000'000;
    }
    const uint64_t p = rng.NextBounded(10);
    r.op = p < 6 ? Op::kGet : (p < 8 ? Op::kPut : Op::kDelete);
    t.requests.push_back(r);
  }
  return t;
}

// ---------------------------------------------------------------------------
// Oracular against its former private billing loop, kept here verbatim as
// the reference. That loop billed each keep decision at the keeping
// event's size through to the next GET, so the two agree exactly when an
// object's size never changes: same counts and latency draws, dollars and
// mean stored bytes equal up to summation order.

OracularResult ReferenceOracular(const Trace& trace, const PriceBook& prices,
                                 const LatencySampler* latency, uint64_t seed) {
  constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  OracularResult result;
  const size_t n = trace.size();
  if (n == 0) {
    return result;
  }

  // Backward pass: for each request, the time of the next GET and the next
  // DELETE of the same object (kNever if none).
  std::vector<SimTime> next_get(n, kNever);
  std::vector<SimTime> next_del(n, kNever);
  {
    std::unordered_map<ObjectId, SimTime> last_get;
    std::unordered_map<ObjectId, SimTime> last_del;
    for (size_t i = n; i-- > 0;) {
      const Request& r = trace.requests[i];
      const auto git = last_get.find(r.id);
      next_get[i] = git == last_get.end() ? kNever : git->second;
      const auto dit = last_del.find(r.id);
      next_del[i] = dit == last_del.end() ? kNever : dit->second;
      switch (r.op) {
        case Op::kGet:
          last_get[r.id] = r.time;
          break;
        case Op::kPut:
          break;
        case Op::kDelete:
          last_del[r.id] = r.time;
          last_get.erase(r.id);  // accesses after a delete see a fresh object
          break;
      }
    }
  }

  // The break-even comparison is done in double: the exact horizon is
  // fractional milliseconds, and truncating it to an integer SimDuration
  // flipped keep/drop decisions for gaps landing exactly on the boundary.
  const double break_even_ms = prices.StorageEgressBreakEvenMs();
  Rng rng(seed);
  // stored_until[id] >= t means the object is resident at time t.
  std::unordered_map<ObjectId, SimTime> stored_until;
  double byte_time = 0.0;  // integral of stored bytes (approximated per keep)

  // Extends `id`'s residency to `until`, billing only the portion of
  // [now, until) that was not already billed by an earlier keep decision.
  // Before this guard a GET keeping until its next GET and an intervening
  // PUT that also kept produced overlapping residency intervals, and the
  // same object-bytes were charged to kCapacity (and byte_time) twice.
  const auto keep_until = [&](ObjectId id, SimTime now, SimTime next, uint64_t size) {
    const auto [it, inserted] = stored_until.try_emplace(id, next);
    SimTime billed_from = now;
    if (!inserted) {
      // Residency through it->second is already paid for; bill the
      // remainder only. (A stale entry never extends past `next`: both were
      // derived from the same next-GET time in the backward pass.)
      billed_from = std::max(now, it->second);
      it->second = std::max(it->second, next);
    }
    if (next > billed_from) {
      const SimDuration keep = next - billed_from;
      result.costs.Add(CostCategory::kCapacity, prices.StorageCost(size, keep));
      byte_time += static_cast<double>(size) * static_cast<double>(keep);
    }
  };

  for (size_t i = 0; i < n; ++i) {
    const Request& r = trace.requests[i];
    // Deletion strictly before the next GET means the copy would die unread:
    // never keep. The tie next_del == next_get is treated explicitly: a tie
    // can only arise when the GET precedes the DELETE in trace order (the
    // backward pass erases last_get at a DELETE, so a DELETE processed after
    // the GET going backwards hides it), in which case serving that GET from
    // the kept copy is correct — so ties resolve to the GET.
    SimTime next = kNever;
    if (next_get[i] != kNever) {
      if (next_del[i] < next_get[i]) {
        next = kNever;  // deletion first -> the copy would never be re-read
      } else {
        next = next_get[i];  // includes the tie: GET precedes DELETE in trace order
      }
    }
    const bool keep =
        next != kNever && static_cast<double>(next - r.time) < break_even_ms;
    switch (r.op) {
      case Op::kGet: {
        const auto it = stored_until.find(r.id);
        const bool hit = it != stored_until.end() && it->second >= r.time;
        if (hit) {
          ++result.osc_hits;
          if (latency != nullptr) {
            result.latency_ms.Add(latency->SampleMs(DataSource::kOsc, r.size, rng));
          }
        } else {
          ++result.remote_fetches;
          result.egress_bytes += r.size;
          result.costs.Add(CostCategory::kEgress, prices.EgressCost(r.size));
          if (latency != nullptr) {
            result.latency_ms.Add(latency->SampleMs(DataSource::kRemoteLake, r.size, rng));
          }
        }
        // Keep until the next access iff storing is cheaper than refetching.
        if (keep) {
          keep_until(r.id, r.time, next, r.size);
        } else {
          stored_until.erase(r.id);
        }
        break;
      }
      case Op::kPut: {
        // Data is written through to the lake, making any cached copy stale:
        // a PUT must refresh-or-erase the stored entry. Keeping a stale
        // entry made a later GET count a hit against the pre-PUT copy.
        if (keep) {
          keep_until(r.id, r.time, next, r.size);
        } else {
          stored_until.erase(r.id);
        }
        break;
      }
      case Op::kDelete:
        stored_until.erase(r.id);
        break;
    }
  }

  const SimDuration span = trace.duration();
  result.mean_stored_bytes = span <= 0 ? 0.0 : byte_time / static_cast<double>(span);
  return result;
}

void ExpectSameOracular(const Trace& t, const LatencySampler* latency, const std::string& label) {
  const OracularResult got = RunOracular(t, CrossCloud(), latency, 9);
  const OracularResult want = ReferenceOracular(t, CrossCloud(), latency, 9);
  EXPECT_EQ(got.osc_hits, want.osc_hits) << label;
  EXPECT_EQ(got.remote_fetches, want.remote_fetches) << label;
  EXPECT_EQ(got.egress_bytes, want.egress_bytes) << label;
  EXPECT_EQ(got.latency_ms.samples(), want.latency_ms.samples()) << label;
  const auto near = [&](double a, double b, const char* what) {
    EXPECT_NEAR(a, b, 1e-12 * std::abs(b)) << label << " " << what;
  };
  near(got.costs.Total(), want.costs.Total(), "total");
  for (CostCategory c :
       {CostCategory::kEgress, CostCategory::kCapacity, CostCategory::kOperation}) {
    near(got.costs.Get(c), want.costs.Get(c), CostCategoryName(c));
  }
  near(got.mean_stored_bytes, want.mean_stored_bytes, "mean_stored_bytes");
}

TEST(OracularTest, MatchesFormerLoopWhenSizesAreConstant) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 2);
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    ExpectSameOracular(RandomSmallTrace(seed, 40, 6, /*size_per_id=*/true), &gen,
                       "seed " + std::to_string(seed));
  }
  for (const char* name : {"ibm12", "ibm18"}) {
    const WorkloadProfile p = ProfileByName(name);
    ExpectSameOracular(SplitObjects(GenerateTrace(p), p.max_object_bytes), nullptr, name);
  }
}

TEST(ExactOracleTest, EmptyTrace) {
  const ExactOracleResult r = RunExactOracle(Trace{}, CrossCloud());
  EXPECT_EQ(r.costs.Total(), 0.0);
  EXPECT_EQ(r.objects_total, 0u);
  EXPECT_FALSE(r.caching_pays);
  EXPECT_TRUE(r.window_cost_timeline.empty());
}

TEST(ExactOracleTest, SingleGetPaysEgressAndOpOnly) {
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}};
  const PriceBook book = CrossCloud();
  const ExactOracleResult r = RunExactOracle(t, book);
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 0u);
  EXPECT_EQ(r.admits, 0u);
  EXPECT_NEAR(r.costs.Get(CostCategory::kEgress), 0.09, 1e-9);
  EXPECT_EQ(r.costs.Get(CostCategory::kCapacity), 0.0);
  EXPECT_NEAR(r.costs.Get(CostCategory::kOperation), book.get_per_request, 1e-15);
  // One compulsory fetch: caching cannot beat remote-only.
  EXPECT_FALSE(r.caching_pays);
  EXPECT_NEAR(r.costs.Total(), r.remote_only_usd, 1e-12);
}

TEST(ExactOracleTest, QuickReaccessHitsAndCachingPays) {
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}, {kHour, 1, 1'000'000'000, Op::kGet}};
  const PriceBook book = CrossCloud();
  const ExactOracleResult r = RunExactOracle(t, book);
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 1u);
  EXPECT_EQ(r.admits, 1u);
  EXPECT_TRUE(r.caching_pays);
  EXPECT_EQ(r.objects_cached, 1u);
  // Hand tally: one egress, one admission PUT, two GET ops, one hour of
  // storage for 1 GB.
  const double expected = book.EgressCost(1'000'000'000) + book.PutCost(1) +
                          2 * book.GetCost(1) + book.StorageCost(1'000'000'000, kHour);
  EXPECT_NEAR(r.costs.Total(), expected, 1e-12);
  EXPECT_NEAR(r.dp_total_usd, expected, 1e-12);
}

TEST(ExactOracleTest, ReaccessBeyondBreakEvenRefetches) {
  const SimDuration far = CrossCloud().StorageEgressBreakEven() + kDay;
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}, {far, 1, 1'000'000'000, Op::kGet}};
  const ExactOracleResult r = RunExactOracle(t, CrossCloud());
  EXPECT_EQ(r.remote_fetches, 2u);
  EXPECT_EQ(r.costs.Get(CostCategory::kCapacity), 0.0);
  EXPECT_EQ(r.admits, 0u);
}

TEST(ExactOracleTest, PutBetweenGetsServesFromRefreshedCopy) {
  const uint64_t size = 1'000'000'000;
  Trace t;
  t.requests = {{0, 1, size, Op::kGet},
                {kHour, 1, size, Op::kPut},
                {2 * kHour, 1, size, Op::kGet}};
  const PriceBook book = CrossCloud();
  const ExactOracleResult r = RunExactOracle(t, book);
  // The optimum admits the PUT copy and serves the second GET from it:
  // storage for one hour plus an admission PUT beats a second egress. The
  // gap between the GET and the PUT stores nothing (the PUT overwrites).
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 1u);
  EXPECT_EQ(r.admits, 1u);
  const double expected = book.EgressCost(size) + 2 * book.GetCost(1) + book.PutCost(1) +
                          book.StorageCost(size, kHour);
  EXPECT_NEAR(r.costs.Total(), expected, 1e-12);
  EXPECT_NEAR(BruteForceOptimum(t, book), expected, 1e-12);
}

TEST(ExactOracleTest, DeleteAndRecreateAtEqualTimestamps) {
  const uint64_t size = 500'000'000;
  Trace t;
  t.requests = {{0, 1, size, Op::kGet},
                {kHour, 1, size, Op::kDelete},
                {kHour, 1, size, Op::kPut},  // recreated at the same instant
                {2 * kHour, 1, size, Op::kGet}};
  const PriceBook book = CrossCloud();
  const ExactOracleResult r = RunExactOracle(t, book);
  // The DELETE forces the pre-delete copy out; the recreated PUT copy is
  // admitted and serves the final GET.
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 1u);
  EXPECT_NEAR(r.costs.Total(), BruteForceOptimum(t, book), 1e-12);
}

TEST(ExactOracleTest, HandFixtureAgreesWithOracularAndBruteForce) {
  // Mixed fixture: reuse inside break-even (obj 1), reuse beyond it
  // (obj 2), write-then-read (obj 3), delete-before-read (obj 4). Under an
  // op-free book with constant prices the per-gap rule is the optimum, so
  // Oracular, the DP, and the enumerator must agree to the last ulp.
  const SimDuration far = CrossCloud().StorageEgressBreakEven() + kDay;
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet},
                {0, 2, 2'000'000'000, Op::kGet},
                {0, 3, 500'000'000, Op::kPut},
                {0, 4, 250'000'000, Op::kGet},
                {kHour, 1, 1'000'000'000, Op::kGet},
                {kHour, 4, 250'000'000, Op::kDelete},
                {2 * kHour, 3, 500'000'000, Op::kGet},
                {2 * kHour, 4, 250'000'000, Op::kGet},
                {far, 2, 2'000'000'000, Op::kGet}};
  const PriceBook book = OpFree(CrossCloud());
  const ExactOracleResult exact = RunExactOracle(t, book);
  const OracularResult oracular = RunOracular(t, book, nullptr, 1);
  EXPECT_NEAR(exact.costs.Total(), BruteForceOptimum(t, book), 1e-12);
  EXPECT_NEAR(exact.costs.Total(), oracular.costs.Total(), 1e-12);
  EXPECT_EQ(exact.osc_hits, oracular.osc_hits);
  EXPECT_EQ(exact.remote_fetches, oracular.remote_fetches);
}

TEST(ExactOracleTest, MatchesBruteForceOnRandomTraces) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const Trace t = RandomSmallTrace(seed, 14, 4);
    for (const PriceBook& book :
         {PriceBook::Aws(DeploymentScenario::kCrossCloud),
          PriceBook::Aws(DeploymentScenario::kCrossRegion), OpFree(CrossCloud())}) {
      const ExactOracleResult r = RunExactOracle(t, book);
      const double bf = BruteForceOptimum(t, book);
      EXPECT_NEAR(r.costs.Total(), bf, 1e-9) << "seed " << seed << " book " << book.name;
      EXPECT_NEAR(r.dp_total_usd, bf, 1e-9) << "seed " << seed;
    }
    // Oracular's schedule is one feasible schedule of the op-free DP.
    const double exact = RunExactOracle(t, OpFree(CrossCloud())).costs.Total();
    const double oracular = RunOracular(t, CrossCloud(), nullptr, seed).costs.Total();
    EXPECT_LE(exact, oracular + 1e-12) << "seed " << seed;
  }
}

TEST(ExactOracleTest, MatchesBruteForceUnderPriceShocks) {
  PriceShock storage_up;
  storage_up.at = 20 * kDay;
  storage_up.storage_scale = 8.0;
  PriceShock egress_down;
  egress_down.at = 60 * kDay;
  egress_down.egress_scale = 0.25;
  const std::vector<PriceShock> shocks = {storage_up, egress_down};
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const Trace t = RandomSmallTrace(seed ^ 0xabcd, 12, 3);
    ExactOracleOptions opts;
    opts.shocks = shocks;
    const ExactOracleResult r = RunExactOracle(t, CrossCloud(), opts);
    const double bf = BruteForceOptimum(t, CrossCloud(), shocks, opts.window);
    EXPECT_NEAR(r.costs.Total(), bf, 1e-9) << "seed " << seed;
  }
}

TEST(ExactOracleTest, ShockedStorageChargedPiecewise) {
  // 1 GB stored across a storage x10 boundary at t=1h: the crossed epochs
  // bill pro-rata at their own rates.
  const uint64_t size = 1'000'000'000;
  PriceShock shock;
  shock.at = kHour;
  shock.storage_scale = 10.0;
  ExactOracleOptions opts;
  opts.window = kHour;  // shock already boundary-aligned
  opts.shocks = {shock};
  Trace t;
  t.requests = {{0, 1, size, Op::kGet}, {2 * kHour, 1, size, Op::kGet}};
  const PriceBook book = CrossCloud();
  const ExactOracleResult r = RunExactOracle(t, book, opts);
  EXPECT_EQ(r.osc_hits, 1u);  // still far cheaper than a second egress
  const double expected_storage =
      book.StorageCost(size, kHour) + 10.0 * book.StorageCost(size, kHour);
  EXPECT_NEAR(r.costs.Get(CostCategory::kCapacity), expected_storage, 1e-12);
}

TEST(ExactOracleTest, NeverCacheTenantFailsCrossover) {
  // Every object touched exactly once: the optimum equals remote-only and
  // the crossover says "do not deploy a cache".
  Trace t;
  for (int i = 0; i < 20; ++i) {
    t.requests.push_back({i * kMinute, static_cast<ObjectId>(100 + i), 3'000'000, Op::kGet});
  }
  const ExactOracleResult r = RunExactOracle(t, CrossCloud());
  EXPECT_FALSE(r.caching_pays);
  EXPECT_EQ(r.objects_cached, 0u);
  EXPECT_EQ(r.admits, 0u);
  EXPECT_NEAR(r.costs.Total(), r.remote_only_usd, 1e-12);
  EXPECT_EQ(r.objects_total, 20u);
}

TEST(ExactOracleTest, WindowTimelineAndOracleCostAt) {
  ExactOracleOptions opts;
  opts.window = kHour;
  Trace t;
  t.requests = {{30 * kMinute, 1, 1'000'000'000, Op::kGet},
                {90 * kMinute, 2, 1'000'000'000, Op::kGet}};
  const PriceBook book = CrossCloud();
  const ExactOracleResult r = RunExactOracle(t, book, opts);
  ASSERT_EQ(r.window_cost_timeline.size(), 2u);
  // Boundary at 1h: only the first GET has been charged.
  EXPECT_EQ(r.window_cost_timeline[0].first, kHour);
  const double first = book.EgressCost(1'000'000'000) + book.GetCost(1);
  EXPECT_NEAR(r.window_cost_timeline[0].second, first, 1e-12);
  // Closing entry at the trace end carries the full total.
  EXPECT_EQ(r.window_cost_timeline[1].first, 90 * kMinute);
  EXPECT_NEAR(r.window_cost_timeline[1].second, r.costs.Total(), 1e-12);
  EXPECT_EQ(OracleCostAt(r, 0), 0.0);
  EXPECT_EQ(OracleCostAt(r, kHour - 1), 0.0);
  EXPECT_NEAR(OracleCostAt(r, kHour), first, 1e-12);
  EXPECT_NEAR(OracleCostAt(r, 89 * kMinute), first, 1e-12);
  EXPECT_NEAR(OracleCostAt(r, 2 * kHour), r.costs.Total(), 1e-12);
}

TEST(ExactOracleTest, CapacityIndependentOfReportingWindow) {
  // Without shocks the window only sets the timeline cadence, so it must not
  // move a dollar: random sparse traces (40 events over 4 objects, 1-6 MB,
  // gaps up to 30 days) bill bit-identical storage at a 15-minute window and
  // at one window longer than the whole trace.
  const PriceBook book = OpFree(CrossCloud());
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    Trace t;
    SimTime time = 0;
    for (int i = 0; i < 40; ++i) {
      time += static_cast<SimTime>(rng.NextBounded(30 * kDay));
      Request r;
      r.time = time;
      r.id = 1 + rng.NextBounded(4);
      r.size = 1'000'000 + rng.NextBounded(5'000'001);
      const uint64_t p = rng.NextBounded(20);
      r.op = p < 12 ? Op::kGet : (p < 17 ? Op::kPut : Op::kDelete);
      t.requests.push_back(r);
    }
    ExactOracleOptions fine;
    fine.window = 15 * kMinute;
    ExactOracleOptions whole;
    whole.window = t.duration() + 1;
    const ExactOracleResult a = RunExactOracle(t, book, fine);
    const ExactOracleResult b = RunExactOracle(t, book, whole);
    ASSERT_GT(a.window_cost_timeline.size(), b.window_cost_timeline.size());
    EXPECT_EQ(a.osc_hits, b.osc_hits) << "seed " << seed;
    EXPECT_EQ(a.costs.Get(CostCategory::kCapacity), b.costs.Get(CostCategory::kCapacity))
        << "seed " << seed;
    EXPECT_EQ(a.mean_stored_bytes, b.mean_stored_bytes) << "seed " << seed;
    EXPECT_EQ(a.costs.Total(), b.costs.Total()) << "seed " << seed;
  }
}

TEST(ExactOracleTest, AnnotateRegretFillsRecords) {
  ExactOracleResult oracle;
  oracle.window_cost_timeline = {{100, 1.0}, {200, 2.5}};
  obs::DecisionTrace dt;
  obs::DecisionRecord rec;
  rec.time = 150;
  rec.realized_cost_usd = 1.75;
  dt.Append(rec);
  rec.time = 250;
  rec.realized_cost_usd = 4.0;
  dt.Append(rec);
  AnnotateRegret(&dt, oracle);
  ASSERT_EQ(dt.records().size(), 2u);
  EXPECT_NEAR(dt.records()[0].regret_usd, 0.75, 1e-12);
  EXPECT_NEAR(dt.records()[1].regret_usd, 1.5, 1e-12);
  AnnotateRegret(nullptr, oracle);  // no-op, must not crash
}

TEST(ExactOracleTest, DeterministicAcrossRepeatRuns) {
  const Trace t = RandomSmallTrace(99, 200, 16);
  const ExactOracleResult a = RunExactOracle(t, CrossCloud());
  const ExactOracleResult b = RunExactOracle(t, CrossCloud());
  EXPECT_EQ(a.costs.Total(), b.costs.Total());  // bitwise
  EXPECT_EQ(a.osc_hits, b.osc_hits);
  EXPECT_EQ(a.window_cost_timeline, b.window_cost_timeline);
}

TEST(ExactOracleTest, OrderingExactLeqOracularLeqEngineData) {
  // Property: under the op-free basket the DP lower-bounds Oracular, and it
  // lower-bounds every engine's data cost (egress + capacity + operation) —
  // the engine's policy is one feasible schedule. Random delete-heavy
  // skewed traces; gaps capped so engine runs stay fast.
  for (uint64_t seed : {11u, 22u, 33u}) {
    Rng rng(seed);
    Trace t;
    t.name = "ordering";
    SimTime time = 0;
    for (int i = 0; i < 2000; ++i) {
      time += static_cast<SimTime>(rng.NextBounded(4 * kMinute));
      Request r;
      r.time = time;
      r.id = 1 + rng.NextBounded(rng.NextBounded(64) + 1);
      r.size = 100'000 + rng.NextBounded(8'000'000);
      const uint64_t p = rng.NextBounded(10);
      r.op = p < 7 ? Op::kGet : (p < 9 ? Op::kPut : Op::kDelete);
      t.requests.push_back(r);
    }
    const PriceBook opfree = OpFree(CrossCloud());
    const double exact = RunExactOracle(t, opfree).costs.Total();
    const double oracular = RunOracular(t, CrossCloud(), nullptr, seed).costs.Total();
    EXPECT_LE(exact, oracular + 1e-9) << "seed " << seed;

    EngineConfig cfg;
    cfg.approach = Approach::kMacaronNoCluster;
    cfg.measure_latency = false;
    cfg.seed = seed;
    const RunResult engine = ReplayEngine(cfg).Run(t);
    const double engine_data = engine.costs.Get(CostCategory::kEgress) +
                               engine.costs.Get(CostCategory::kCapacity) +
                               engine.costs.Get(CostCategory::kOperation);
    EXPECT_LE(exact, engine_data + 1e-9) << "seed " << seed;
    EXPECT_LE(oracular, engine_data + 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace macaron
