// Fig 12b: effect of the dark-data fraction on Replicated's cost relative to
// Macaron. At 0% dark data Replicated is merely somewhat more expensive; at
// 99% it is orders of magnitude more expensive.

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace macaron;

int RunFig12bDarkData() {
  bench::PrintHeader("Replicated cost relative to Macaron vs dark-data fraction", "Fig 12b");
  const double fractions[] = {0.0, 0.3, 0.5, 0.7, 0.9, 0.99};
  std::vector<size_t> mac_jobs;
  for (const std::string& name : HeadlineProfileNames()) {
    mac_jobs.push_back(
        bench::Submit(name, Approach::kMacaronNoCluster, DeploymentScenario::kCrossCloud));
  }
  std::vector<std::vector<size_t>> repl_jobs;
  for (double f : fractions) {
    std::vector<size_t> per_trace;
    for (const std::string& name : HeadlineProfileNames()) {
      EngineConfig cfg =
          bench::DefaultConfig(Approach::kReplicated, DeploymentScenario::kCrossCloud);
      cfg.dark_data_fraction = f;
      per_trace.push_back(bench::Submit(name, cfg));
    }
    repl_jobs.push_back(std::move(per_trace));
  }
  double mac = 0;
  for (size_t job : mac_jobs) {
    mac += bench::Result(job).costs.Total();
  }
  std::printf("%-10s %14s %16s\n", "dark%", "replicated$", "ratio vs macaron");
  std::vector<double> ratios;
  for (size_t fi = 0; fi < repl_jobs.size(); ++fi) {
    double repl = 0;
    for (size_t job : repl_jobs[fi]) {
      repl += bench::Result(job).costs.Total();
    }
    ratios.push_back(repl / mac);
    std::printf("%8.0f%% %14.4f %15.1fx\n", fractions[fi] * 100, repl, repl / mac);
  }
  const bool monotone = std::is_sorted(ratios.begin(), ratios.end());
  std::printf("\nMacaron total: %s. Ratio grows monotonically with dark data: %s\n"
              "(paper: 0%% dark -> Replicated 1.6x; 99%% dark -> 158.9x).\n",
              bench::Dollars(mac).c_str(), monotone ? "yes" : "NO");
  return 0;
}
