// Ablation: cache priming of newly launched cluster nodes (§6.2).
//
// Object storage workloads have request rates far below KV-store workloads
// (IBM traces <= 344 RPS vs Twitter's 7k), so new nodes fill too slowly on
// their own. Priming preloads them from the OSC's hot order. Disabling it
// should cut cluster hits and raise average latency for the same spend.

#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/cluster/cache_cluster.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"

using namespace macaron;

namespace {

// Targeted scale-out microbenchmark: a warm 2-node cluster doubles to 4
// nodes; measure the hit ratio of the next request burst with and without
// priming the new nodes from the OSC.
void ScaleOutMicrobench() {
  std::printf("\nScale-out microbenchmark (2 -> 4 nodes, zipf(0.9) stream):\n");
  std::printf("%-10s %12s\n", "priming", "hit ratio after scale-out");
  for (bool prime : {true, false}) {
    PackingConfig pc;
    ObjectStorageCache osc(pc);
    CacheCluster cluster(50'000'000);
    cluster.Resize(2);
    Rng rng(7);
    ZipfSampler zipf(20000, 0.9);
    // Warm both tiers.
    for (int i = 0; i < 100000; ++i) {
      const ObjectId id = zipf.Sample(rng);
      osc.Admit(id, 10'000);
      cluster.Put(id, 10'000);
    }
    const auto added = cluster.Resize(4);
    if (prime) {
      cluster.Prime(osc, added);
    }
    uint64_t hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      if (cluster.Get(zipf.Sample(rng))) {
        ++hits;
      }
    }
    std::printf("%-10s %11.1f%%\n", prime ? "on" : "off",
                100.0 * static_cast<double>(hits) / n);
  }
}

}  // namespace

int RunAblationPriming() {
  bench::PrintHeader("Cluster priming ablation (Macaron+CC)", "§6.2");
  const char* kTraces[] = {"ibm9", "ibm11", "ibm12", "ibm55", "vmware"};
  std::vector<std::pair<size_t, size_t>> jobs;
  for (const char* name : kTraces) {
    EngineConfig primed =
        bench::DefaultConfig(Approach::kMacaron, DeploymentScenario::kCrossCloud, true);
    EngineConfig cold = primed;
    cold.enable_priming = false;
    jobs.emplace_back(bench::Submit(name, primed), bench::Submit(name, cold));
  }
  std::printf("%-8s | %12s %12s | %9s %9s | %10s %10s\n", "trace", "hits(primed)",
              "hits(cold)", "ms(primed)", "ms(cold)", "$ (primed)", "$ (cold)");
  for (size_t i = 0; i < jobs.size(); ++i) {
    const RunResult& rp = bench::Result(jobs[i].first);
    const RunResult& rc = bench::Result(jobs[i].second);
    std::printf("%-8s | %12llu %12llu | %9.1f %9.1f | %10.4f %10.4f\n", kTraces[i],
                static_cast<unsigned long long>(rp.cluster_hits),
                static_cast<unsigned long long>(rc.cluster_hits), rp.MeanLatencyMs(),
                rc.MeanLatencyMs(), rp.costs.Total(), rc.costs.Total());
  }
  std::printf("\nEnd-to-end effects are small when the controller holds the cluster size\n"
              "steady (few scale-out events); the microbenchmark below isolates one\n"
              "scale-out, where priming restores the hit ratio immediately (§6.2).\n");
  ScaleOutMicrobench();
  return 0;
}
