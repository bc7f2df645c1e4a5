// Fig 11 / §7.5: latency distributions per approach (violin-plot summary:
// mean and percentiles) for VMware, IBM 9, IBM 11, IBM 55, plus the
// Macaron+CC vs ECPC cost/latency comparison.

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace macaron;

namespace {

void PrintDist(const char* name, const RunResult& r) {
  std::printf("  %-14s mean %7.1f  p10 %7.1f  p50 %7.1f  p90 %7.1f  p99 %7.1f   total %s\n",
              name, r.MeanLatencyMs(), r.latency_ms.Quantile(0.10), r.latency_ms.Quantile(0.50),
              r.latency_ms.Quantile(0.90), r.latency_ms.Quantile(0.99),
              bench::Dollars(r.costs.Total()).c_str());
}

}  // namespace

int RunFig11Latency() {
  bench::PrintHeader("Latency distributions by approach (ms)", "Fig 11 / §7.5");
  struct Row {
    const char* name;
    size_t remote, repl, ecpc, mac, cc;
  };
  std::vector<Row> grid;
  for (const char* name : {"vmware", "ibm9", "ibm11", "ibm55"}) {
    Row r;
    r.name = name;
    r.remote = bench::Submit(name, Approach::kRemote, DeploymentScenario::kCrossCloud, true);
    r.repl = bench::Submit(name, Approach::kReplicated, DeploymentScenario::kCrossCloud, true);
    r.ecpc = bench::Submit(name, Approach::kEcpc, DeploymentScenario::kCrossCloud, true);
    r.mac =
        bench::Submit(name, Approach::kMacaronNoCluster, DeploymentScenario::kCrossCloud, true);
    r.cc = bench::Submit(name, Approach::kMacaron, DeploymentScenario::kCrossCloud, true);
    grid.push_back(r);
  }
  int cc_beats_replicated = 0;
  int traces = 0;
  for (const Row& row : grid) {
    std::printf("%s:\n", row.name);
    const RunResult& repl = bench::Result(row.repl);
    const RunResult& ecpc = bench::Result(row.ecpc);
    const RunResult& cc = bench::Result(row.cc);
    PrintDist("remote", bench::Result(row.remote));
    PrintDist("replicated", repl);
    PrintDist("ecpc", ecpc);
    PrintDist("macaron", bench::Result(row.mac));
    PrintDist("macaron+cc", cc);
    std::printf("  macaron+cc vs ecpc: cost %s lower, latency %s lower\n",
                bench::Percent(1.0 - cc.costs.Total() / ecpc.costs.Total()).c_str(),
                bench::Percent(1.0 - cc.MeanLatencyMs() / ecpc.MeanLatencyMs()).c_str());
    ++traces;
    if (cc.MeanLatencyMs() < repl.MeanLatencyMs() * 1.3) {
      ++cc_beats_replicated;
    }
  }
  std::printf("\nShape: Macaron w/o cluster is bounded below by OSC latency (~Replicated); "
              "Macaron+CC pulls the low end to DRAM latency; Remote dominates the tail.\n");
  std::printf("Macaron+CC within 1.3x of Replicated mean latency on %d/%d traces.\n",
              cc_beats_replicated, traces);
  return 0;
}
