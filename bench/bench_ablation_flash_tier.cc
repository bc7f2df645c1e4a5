// Ablation: the cache storage medium (the §4.1 future-work question).
//
// The paper chooses object storage for capacity and DRAM for latency, and
// leaves flash "for future work". This ablation completes the spectrum:
// DRAM-only ECPC, flash-only elastic cache, OSC-only Macaron, and the
// DRAM+OSC combination — cost vs latency for each medium.

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace macaron;

int RunAblationFlashTier() {
  bench::PrintHeader("Cache storage medium: DRAM vs flash vs object storage",
                     "§4.1 (future work)");
  const char* kTraces[] = {"ibm12", "ibm55", "uber1", "vmware"};
  constexpr Approach kApproaches[] = {Approach::kEcpc, Approach::kFlashEcpc,
                                      Approach::kMacaronNoCluster, Approach::kMacaron};
  std::vector<std::vector<size_t>> jobs;
  for (const char* name : kTraces) {
    std::vector<size_t> per_approach;
    for (Approach a : kApproaches) {
      per_approach.push_back(bench::Submit(name, a, DeploymentScenario::kCrossCloud, true));
    }
    jobs.push_back(std::move(per_approach));
  }
  std::printf("capacity $/GB-month: DRAM %.2f | flash %.2f | object storage %.3f\n\n",
              PriceBook::Aws(DeploymentScenario::kCrossCloud).dram_per_gb_month,
              PriceBook::Aws(DeploymentScenario::kCrossCloud).flash_per_gb_month,
              PriceBook::Aws(DeploymentScenario::kCrossCloud).object_storage_per_gb_month);
  for (size_t i = 0; i < jobs.size(); ++i) {
    std::printf("%s:\n", kTraces[i]);
    std::printf("  %-14s %10s %10s | %8s %8s\n", "medium", "total$", "egress$", "avg ms",
                "p99 ms");
    for (size_t job : jobs[i]) {
      const RunResult& r = bench::Result(job);
      std::printf("  %-14s %10.4f %10.4f | %8.1f %8.1f\n", r.approach_name.c_str(),
                  r.costs.Total(), r.costs.Get(CostCategory::kEgress), r.MeanLatencyMs(),
                  r.latency_ms.Quantile(0.99));
    }
  }
  std::printf("\nExpected shape: flash sits between DRAM and OSC on both axes — far\n"
              "cheaper and larger than DRAM (fewer misses than ECPC), faster but\n"
              "costlier per GB than the OSC. Object storage stays the cost-optimal\n"
              "capacity tier for byte-heavy workloads; the interesting exception is\n"
              "request-rate-heavy tiny datasets (VMware), where the OSC's per-request\n"
              "GET charges exceed a flash node's flat hourly price — supporting the\n"
              "paper's note that flash is a promising future extension.\n");
  return 0;
}
