// Targeted tests for the prototype-fidelity event engine: the behaviours
// that distinguish it from the replay engine (asynchronous admission,
// delayed reconfiguration application) plus the usual accounting
// invariants.

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

EngineConfig Config(Approach a) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  cfg.num_minicaches = 16;
  return cfg;
}

Trace SmallTrace() {
  WorkloadProfile p = ProfileByName("ibm18");
  p.dataset_bytes = 300'000'000;
  p.get_bytes = 1'200'000'000;
  p.put_bytes = 50'000'000;
  p.duration = 2 * kDay;
  return SplitObjects(GenerateTrace(p), p.max_object_bytes);
}

TEST(EventEngineTest, HitCountersPartitionGets) {
  const Trace t = SmallTrace();
  const TraceStats s = ComputeStats(t);
  for (Approach a : {Approach::kMacaronNoCluster, Approach::kMacaron, Approach::kMacaronTtl}) {
    const RunResult r = EventEngine(Config(a)).Run(t);
    EXPECT_EQ(r.gets, s.num_gets) << r.approach_name;
    EXPECT_EQ(r.cluster_hits + r.osc_hits + r.remote_fetches + r.delayed_hits, r.gets)
        << r.approach_name;
  }
}

TEST(EventEngineTest, DeterministicAcrossRuns) {
  const Trace t = SmallTrace();
  const EngineConfig cfg = Config(Approach::kMacaronNoCluster);
  const RunResult a = EventEngine(cfg).Run(t);
  const RunResult b = EventEngine(cfg).Run(t);
  EXPECT_EQ(a.costs.Total(), b.costs.Total());
  EXPECT_EQ(a.remote_fetches, b.remote_fetches);
  EXPECT_EQ(a.MeanLatencyMs(), b.MeanLatencyMs());
}

TEST(EventEngineTest, ApproachNameCarriesProtoSuffix) {
  Trace t;
  t.requests = {{0, 1, 1000, Op::kGet}, {kHour, 1, 1000, Op::kGet}};
  const RunResult r = EventEngine(Config(Approach::kMacaronNoCluster)).Run(t);
  EXPECT_EQ(r.approach_name, "macaron-proto");
}

TEST(EventEngineTest, AdmissionHappensAtFetchCompletion) {
  // Two accesses to a cold object 50 ms apart: the remote fetch (100+ ms)
  // has not completed, so the second access must be a delayed hit even
  // though the replay engine would have admitted the object already.
  Trace t;
  t.requests = {{0, 1, 1'000'000, Op::kGet},
                {50, 1, 1'000'000, Op::kGet},
                {kHour, 1, 1'000'000, Op::kGet}};
  const RunResult r = EventEngine(Config(Approach::kMacaronNoCluster)).Run(t);
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.delayed_hits, 1u);
  EXPECT_EQ(r.osc_hits, 1u);  // an hour later the admission has landed
  EXPECT_NEAR(r.costs.Get(CostCategory::kEgress), 0.09 / 1000.0, 1e-7);
}

TEST(EventEngineTest, CoalescedBurstChargedOnce) {
  Trace t;
  for (int i = 0; i < 8; ++i) {
    t.requests.push_back({static_cast<SimTime>(i), 1, 1'000'000'000, Op::kGet});
  }
  const RunResult r = EventEngine(Config(Approach::kMacaronNoCluster)).Run(t);
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.delayed_hits, 7u);
  EXPECT_NEAR(r.costs.Get(CostCategory::kEgress), 0.09, 1e-9);
}

TEST(EventEngineTest, ReconfiguresAfterObservation) {
  const Trace t = SmallTrace();
  const RunResult r = EventEngine(Config(Approach::kMacaronNoCluster)).Run(t);
  EXPECT_GT(r.reconfigs, 90);
  EXPECT_FALSE(r.osc_capacity_timeline.empty());
  // Decisions are applied after the modeled reconfiguration delay: the
  // first applied capacity lands strictly after the day-1 boundary.
  EXPECT_GT(r.osc_capacity_timeline.front().first, kDay);
}

TEST(EventEngineTest, TtlModeProducesTtlTimeline) {
  const Trace t = SmallTrace();
  const RunResult r = EventEngine(Config(Approach::kMacaronTtl)).Run(t);
  EXPECT_FALSE(r.ttl_timeline.empty());
  EXPECT_GT(r.first_optimized_ttl, 0);
}

TEST(EventEngineTest, ClusterModeChargesNodes) {
  const Trace t = SmallTrace();
  const RunResult r = EventEngine(Config(Approach::kMacaron)).Run(t);
  EXPECT_GT(r.cluster_hits, 0u);
  EXPECT_GT(r.costs.Get(CostCategory::kClusterNodes), 0.0);
}

TEST(EventEngineTest, EgressBoundedByCompulsoryAndTotal) {
  const Trace t = SmallTrace();
  const TraceStats s = ComputeStats(t);
  const RunResult r = EventEngine(Config(Approach::kMacaronNoCluster)).Run(t);
  EXPECT_GE(r.egress_bytes, s.unique_get_bytes);
  EXPECT_LE(r.egress_bytes, s.get_bytes);
}

// Regression: events that run after the last window boundary (the final
// queue drain) used to leave their OSC operations counted but never billed.
// On ibm55 the last scheduled apply's eviction collects garbage blocks after
// the final boundary's charge; their GC block reads went unbilled. Every
// operation the OSC and the cluster counted must appear in the bill.
TEST(EventEngineTest, FinalDrainOperationsAreBilled) {
  const WorkloadProfile p = ProfileByName("ibm55");
  const Trace t = SplitObjects(GenerateTrace(p), p.max_object_bytes);
  for (Approach a : {Approach::kMacaronNoCluster, Approach::kMacaron}) {
    EngineConfig cfg = Config(a);
    cfg.num_minicaches = 48;
    obs::MetricsRegistry metrics;
    cfg.metrics = &metrics;
    const RunResult r = EventEngine(cfg).Run(t);
    const uint64_t gets = r.remote_fetches + r.osc_hits + metrics.CounterValue("osc", "gc_blocks") +
                          metrics.CounterValue("cluster", "primed_objects");
    const double counted = cfg.prices.PutCost(metrics.CounterValue("osc", "block_flushes")) +
                           cfg.prices.GetCost(gets);
    // One GET costs 4e-7; float summation noise is below 1e-12.
    EXPECT_NEAR(r.costs.Get(CostCategory::kOperation), counted, 1e-10) << r.approach_name;
  }
}

}  // namespace
}  // namespace macaron
