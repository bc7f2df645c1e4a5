// Table 3 / §7.7: cross-validation of the two execution engines — the fast
// replay engine (the paper's simulator) against the prototype-fidelity
// event engine (the paper's AWS prototype): total cost, per-level GET hits,
// and average latency must closely agree.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace macaron;

int RunTable3Validation() {
  bench::PrintHeader("Replay engine vs prototype-fidelity event engine", "Table 3 / §7.7");
  const char* kTraces[] = {"ibm9", "ibm55", "ibm58"};
  struct Row {
    size_t sim, proto, plain;
  };
  std::vector<Row> grid;
  for (const char* name : kTraces) {
    const EngineConfig cfg =
        bench::DefaultConfig(Approach::kMacaron, DeploymentScenario::kCrossCloud, true);
    const EngineConfig plain_cfg =
        bench::DefaultConfig(Approach::kMacaron, DeploymentScenario::kCrossCloud, false);
    Row r;
    r.sim = bench::Submit(name, cfg);
    r.proto = bench::Submit(name, cfg, sweep::JobEngine::kEvent);
    r.plain = bench::Submit(name, plain_cfg);  // for the reconfiguration table
    grid.push_back(r);
  }
  std::printf("%-8s | %10s %10s %7s | %-17s %-17s | %8s %8s %6s\n", "trace", "sim$", "proto$",
              "gap%", "sim cc:osc:rem", "proto cc:osc:rem", "sim ms", "proto ms", "gap%");
  double worst_cost_gap = 0.0;
  double worst_lat_gap = 0.0;
  for (size_t i = 0; i < grid.size(); ++i) {
    const char* name = kTraces[i];
    const RunResult& sim = bench::Result(grid[i].sim);
    const RunResult& proto = bench::Result(grid[i].proto);
    const double cost_gap = std::abs(proto.costs.Total() / sim.costs.Total() - 1.0);
    const double lat_gap = std::abs(proto.MeanLatencyMs() / sim.MeanLatencyMs() - 1.0);
    worst_cost_gap = std::max(worst_cost_gap, cost_gap);
    worst_lat_gap = std::max(worst_lat_gap, lat_gap);
    char sim_hits[32];
    char proto_hits[32];
    std::snprintf(sim_hits, sizeof(sim_hits), "%llu:%llu:%llu",
                  static_cast<unsigned long long>(sim.cluster_hits),
                  static_cast<unsigned long long>(sim.osc_hits),
                  static_cast<unsigned long long>(sim.remote_fetches));
    std::snprintf(proto_hits, sizeof(proto_hits), "%llu:%llu:%llu",
                  static_cast<unsigned long long>(proto.cluster_hits),
                  static_cast<unsigned long long>(proto.osc_hits),
                  static_cast<unsigned long long>(proto.remote_fetches));
    std::printf("%-8s | %10.4f %10.4f %6.2f%% | %-17s %-17s | %8.1f %8.1f %5.1f%%\n", name,
                sim.costs.Total(), proto.costs.Total(), cost_gap * 100, sim_hits, proto_hits,
                sim.MeanLatencyMs(), proto.MeanLatencyMs(), lat_gap * 100);
  }
  std::printf("\nWorst gaps: cost %.2f%%, latency %.1f%% (paper: 0.08-0.17%% cost, "
              "4-7.6%% latency)\n",
              worst_cost_gap * 100, worst_lat_gap * 100);

  // Reconfiguration overhead (§7.7).
  std::printf("\nReconfiguration overhead (replay engine):\n");
  std::printf("%-8s %8s %12s %14s %16s\n", "trace", "reconfs", "total (s)", "avg/reconf (s)",
              "share of runtime");
  for (size_t i = 0; i < grid.size(); ++i) {
    const char* name = kTraces[i];
    const Trace& t = bench::GetTrace(name);
    const RunResult& r = bench::Result(grid[i].plain);
    const double runtime_s = DurationSeconds(t.duration());
    std::printf("%-8s %8d %12.1f %14.1f %15.2f%%\n", name, r.reconfigs,
                r.total_reconfig_seconds, r.total_reconfig_seconds / std::max(1, r.reconfigs),
                r.total_reconfig_seconds / runtime_s * 100);
  }
  std::printf("Paper: end-to-end reconfiguration 6-418 s (avg 71 s), <9%% of runtime.\n");
  return 0;
}
