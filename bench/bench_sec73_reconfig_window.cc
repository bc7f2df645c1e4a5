// §7.3: value of frequent reconfiguration. Adaptive Macaron at 15-minute
// windows versus coarser windows (1h, 6h, 24h) and versus a static capacity
// fixed to the first optimized (day-1) choice.

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace macaron;

int RunSec73ReconfigWindow() {
  bench::PrintHeader("Reconfiguration cadence: 15 min vs coarser vs static", "§7.3");
  const char* kTraces[] = {"ibm9", "ibm12", "ibm55", "ibm80", "ibm83", "vmware", "uber1"};
  const SimDuration kWindows[] = {15 * kMinute, kHour, 6 * kHour, 24 * kHour};
  // Wave 1: every window size for every trace.
  std::vector<std::vector<size_t>> window_jobs;
  for (const char* name : kTraces) {
    std::vector<size_t> per_window;
    for (SimDuration w : kWindows) {
      EngineConfig cfg =
          bench::DefaultConfig(Approach::kMacaronNoCluster, DeploymentScenario::kCrossCloud);
      cfg.window = w;
      per_window.push_back(bench::Submit(name, cfg));
    }
    window_jobs.push_back(std::move(per_window));
  }
  // Wave 2: the static configuration depends on the 15-minute run's first
  // optimized capacity, so it submits only after that result is in.
  std::vector<size_t> static_jobs;
  for (size_t i = 0; i < window_jobs.size(); ++i) {
    const RunResult& r15 = bench::Result(window_jobs[i][0]);
    EngineConfig static_cfg =
        bench::DefaultConfig(Approach::kStaticCapacity, DeploymentScenario::kCrossCloud);
    static_cfg.static_capacity_bytes = std::max<uint64_t>(r15.first_optimized_capacity, 1);
    static_jobs.push_back(bench::Submit(kTraces[i], static_cfg));
  }
  std::printf("%-8s %10s %10s %10s %10s %10s | %16s\n", "trace", "15min", "1h", "6h", "24h",
              "static", "15min vs static");
  double sum15 = 0, sum_static = 0;
  for (size_t i = 0; i < window_jobs.size(); ++i) {
    double costs[4];
    for (int w = 0; w < 4; ++w) {
      costs[w] = bench::Result(window_jobs[i][w]).costs.Total();
    }
    const double static_cost = bench::Result(static_jobs[i]).costs.Total();
    std::printf("%-8s %10.4f %10.4f %10.4f %10.4f %10.4f | %15s\n", kTraces[i], costs[0],
                costs[1], costs[2], costs[3], static_cost,
                bench::Percent(1.0 - costs[0] / static_cost).c_str());
    sum15 += costs[0];
    sum_static += static_cost;
  }
  std::printf("\nOverall: adaptive 15-min reconfiguration saves %s vs the day-1 static "
              "configuration (paper: avg 12%% cross-cloud; shrinking 24h->15min saves "
              "another ~4%%).\n",
              bench::Percent(1.0 - sum15 / sum_static).c_str());
  return 0;
}
