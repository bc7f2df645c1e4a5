// Fig 12a: sensitivity to the egress price. Macaron is evaluated at 100%,
// 22% (cross-region), 10% and 1% of the 9c/GB cross-cloud rate; it should
// stay cheapest across all pricing models.

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace macaron;

int RunFig12aEgressSensitivity() {
  bench::PrintHeader("Cost under scaled egress prices (all 19 traces, cross-cloud)",
                     "Fig 12a");
  const double scales[] = {1.0, 0.22, 0.10, 0.01};
  constexpr Approach kApproaches[] = {Approach::kRemote, Approach::kReplicated, Approach::kEcpc,
                                      Approach::kMacaronNoCluster};
  // jobs[scale][approach] lists one job per trace.
  std::vector<std::vector<std::vector<size_t>>> jobs;
  for (double s : scales) {
    std::vector<std::vector<size_t>> per_approach(4);
    for (const std::string& name : bench::AllTraceNames()) {
      for (int a = 0; a < 4; ++a) {
        EngineConfig cfg = bench::DefaultConfig(kApproaches[a], DeploymentScenario::kCrossCloud);
        cfg.prices = cfg.prices.WithEgressScale(s);
        per_approach[a].push_back(bench::Submit(name, cfg));
      }
    }
    jobs.push_back(std::move(per_approach));
  }
  std::printf("%-10s %12s %12s %12s %12s | macaron cheapest?\n", "egress", "remote",
              "replicated", "ecpc", "macaron");
  bool always_cheapest = true;
  for (size_t si = 0; si < 4; ++si) {
    const double s = scales[si];
    double totals[4] = {0, 0, 0, 0};
    for (int a = 0; a < 4; ++a) {
      for (size_t job : jobs[si][a]) {
        totals[a] += bench::Result(job).costs.Total();
      }
    }
    const double remote = totals[0];
    const double repl = totals[1];
    const double ecpc = totals[2];
    const double mac = totals[3];
    const bool cheapest = mac <= remote && mac <= repl && mac <= ecpc;
    if (s >= 0.05) {
      always_cheapest = always_cheapest && cheapest;
    }
    std::printf("%8.0f%% %12.4f %12.4f %12.4f %12.4f | %s\n", s * 100, remote, repl, ecpc, mac,
                cheapest ? "yes" : "no");
  }
  std::printf("\nPaper: Macaron surpasses the baselines at every egress price down to 1%%.\n"
              "Here: Macaron cheapest at 100%%/22%%/10%%: %s. At 1%% the storage-vs-egress\n"
              "break-even shrinks to ~1 day and Macaron converges to Remote plus its fixed\n"
              "costs (controller VM, day-1 cache-all capacity, packing PUTs); at our\n"
              "~1/1000 byte scale those fixed costs tip the 1%% point to Remote, whereas at\n"
              "the paper's TB scale egress still dominates them.\n",
              always_cheapest ? "reproduced" : "NOT reproduced");
  return 0;
}
