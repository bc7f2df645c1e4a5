// Degenerate inputs through the one serving runtime, under both presets:
// the replay engine (every approach) and the prototype-fidelity event
// engine (the adaptive Macaron approaches). Each run must complete — which
// means passing the runtime's end-of-run conservation checks and every
// ledger's closing check, all of which abort on failure — and resolve every
// GET at exactly one level. A configuration that cannot be served must fail
// loudly instead of producing numbers.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"

namespace macaron {
namespace {

constexpr Approach kReplayApproaches[] = {
    Approach::kRemote,         Approach::kReplicated,       Approach::kEcpc,
    Approach::kFlashEcpc,      Approach::kMacaron,          Approach::kMacaronNoCluster,
    Approach::kMacaronTtl,     Approach::kStaticCapacity,   Approach::kStaticTtl,
};
constexpr Approach kPrototypeApproaches[] = {
    Approach::kMacaron,
    Approach::kMacaronNoCluster,
    Approach::kMacaronTtl,
};

EngineConfig Config(Approach a) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.num_minicaches = 8;
  cfg.static_capacity_bytes = 20ull * 1000 * 1000;
  cfg.static_ttl = 12 * kHour;
  return cfg;
}

struct Case {
  std::string name;
  Trace trace;
  SimDuration window = 15 * kMinute;
};

uint64_t CountGets(const Trace& t) {
  uint64_t gets = 0;
  for (const Request& r : t.requests) {
    gets += r.op == Op::kGet ? 1 : 0;
  }
  return gets;
}

// Two days of traffic on the same object mix, so runs cross the one-day
// observation period and the controller optimizes.
Trace Spread(const std::vector<Request>& pattern, SimDuration step) {
  Trace t;
  SimTime now = 0;
  while (now < 2 * kDay) {
    for (Request r : pattern) {
      r.time = now;
      t.requests.push_back(r);
      now += step;
    }
  }
  return t;
}

std::vector<Case> Cases() {
  std::vector<Case> cases;
  cases.push_back({"empty", Trace{}});
  cases.push_back({"one-object",
                   Spread({{0, 7, 1'000'000, Op::kGet},
                           {0, 7, 1'000'000, Op::kGet},
                           {0, 7, 1'000'000, Op::kPut}},
                          10 * kMinute)});
  cases.push_back({"all-deletes", Spread({{0, 1, 1'000, Op::kDelete},
                                          {0, 2, 5'000, Op::kDelete},
                                          {0, 3, 0, Op::kDelete}},
                                         7 * kMinute)});
  Case long_window{"window-longer-than-trace",
                   Spread({{0, 1, 200'000, Op::kGet},
                           {0, 2, 300'000, Op::kPut},
                           {0, 2, 300'000, Op::kGet},
                           {0, 1, 200'000, Op::kDelete}},
                          5 * kMinute)};
  long_window.window = 10 * kDay;
  cases.push_back(long_window);
  // Larger than a 16 MB packing block, interleaved with small objects that
  // do pack.
  cases.push_back({"object-larger-than-block",
                   Spread({{0, 1, 40'000'000, Op::kGet},
                           {0, 2, 100'000, Op::kGet},
                           {0, 1, 40'000'000, Op::kPut},
                           {0, 1, 40'000'000, Op::kGet}},
                          11 * kMinute)});
  for (Case& c : cases) {
    c.trace.name = c.name;
  }
  return cases;
}

// An empty trace returns before the first boundary: nothing was served, so
// nothing is billed or checked beyond the zero counters.
template <typename Engine>
void ExpectCompletes(const Case& c, Approach a) {
  for (int shards : {1, 4}) {
    EngineConfig cfg = Config(a);
    cfg.window = c.window;
    cfg.num_shards = shards;
    const RunResult r = Engine(cfg).Run(c.trace);
    const std::string label =
        c.name + " " + r.approach_name + " shards=" + std::to_string(shards);
    EXPECT_EQ(r.gets, CountGets(c.trace)) << label;
    EXPECT_EQ(r.cluster_hits + r.osc_hits + r.remote_fetches + r.delayed_hits, r.gets) << label;
    EXPECT_TRUE(std::isfinite(r.costs.Total())) << label;
    EXPECT_GE(r.costs.Total(), 0.0) << label;
    // The adaptive approaches reach the controller's optimize-and-apply
    // path on every non-empty input: each trace outlasts the observation.
    const bool adaptive = a == Approach::kMacaron || a == Approach::kMacaronNoCluster ||
                          a == Approach::kMacaronTtl;
    if (adaptive && !c.trace.empty()) {
      EXPECT_GT(r.reconfigs, 0) << label;
    }
  }
}

TEST(DegenerateInputTest, ReplayPresetCompletesEveryApproach) {
  for (const Case& c : Cases()) {
    for (Approach a : kReplayApproaches) {
      ExpectCompletes<ReplayEngine>(c, a);
    }
  }
}

TEST(DegenerateInputTest, PrototypePresetCompletesMacaronFamily) {
  for (const Case& c : Cases()) {
    for (Approach a : kPrototypeApproaches) {
      ExpectCompletes<EventEngine>(c, a);
    }
  }
}

TEST(DegenerateInputDeathTest, StaticCapacityOfZeroFailsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EngineConfig cfg = Config(Approach::kStaticCapacity);
  cfg.static_capacity_bytes = 0;
  const Case one = Cases()[1];
  EXPECT_DEATH(ReplayEngine(cfg).Run(one.trace), "static_capacity_bytes > 0");
}

}  // namespace
}  // namespace macaron
