// §7.7: reconfiguration and analysis overheads — mini-simulation runtime per
// window, end-to-end reconfiguration time, and the serverless (Lambda) cost
// share of the total bill.

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace macaron;

int RunSec77Overhead() {
  bench::PrintHeader("Analysis & reconfiguration overheads", "§7.7");
  std::vector<std::pair<std::string, size_t>> jobs;
  for (const std::string& name : bench::AllTraceNames()) {
    jobs.emplace_back(
        name, bench::Submit(name, Approach::kMacaronNoCluster, DeploymentScenario::kCrossCloud));
  }
  std::printf("%-8s %8s %14s %16s %14s %14s\n", "trace", "reconfs", "avg analysis(s)",
              "avg reconfig(s)", "lambda$", "lambda share");
  double worst_share = 0.0;
  for (const auto& [name, job] : jobs) {
    const RunResult& r = bench::Result(job);
    const double share = r.costs.Get(CostCategory::kServerless) / r.costs.Total();
    worst_share = std::max(worst_share, share);
    std::printf("%-8s %8d %14.1f %16.1f %14.5f %13.2f%%\n", name.c_str(), r.reconfigs,
                r.total_analysis_seconds / std::max(1, r.reconfigs),
                r.total_reconfig_seconds / std::max(1, r.reconfigs),
                r.costs.Get(CostCategory::kServerless), share * 100);
  }
  std::printf("\nWorst serverless share: %.2f%% (paper: 0.003-4%%, avg 0.6%%; analysis "
              "0.3-44 s per window, avg 31 s).\n",
              worst_share * 100);
  return 0;
}
