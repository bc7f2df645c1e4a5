// §7.4: object packing ablation. Packing amortizes expensive PUTs across up
// to 40 objects per 16 MB block; traces with small objects and high request
// rates benefit the most (paper: IBM 18 saves 36%, IBM 45 saves 5%). Also
// sweeps the block size (larger blocks cut op cost further).

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace macaron;

namespace {

size_t SubmitPacking(const std::string& name, bool packing, uint64_t block_bytes = 16'000'000,
                     uint32_t max_objects = 40) {
  EngineConfig cfg =
      macaron::bench::DefaultConfig(Approach::kMacaronNoCluster, DeploymentScenario::kCrossCloud);
  cfg.packing.packing_enabled = packing;
  cfg.packing.block_bytes = block_bytes;
  cfg.packing.max_objects_per_block = max_objects;
  return macaron::bench::Submit(name, cfg);
}

}  // namespace

int RunSec74Packing() {
  bench::PrintHeader("Object packing ablation", "§7.4");
  const char* kTraces[] = {"ibm18", "ibm45", "ibm12", "ibm55", "vmware"};
  const uint64_t kBlocks[] = {2'000'000ull, 4'000'000ull, 16'000'000ull, 64'000'000ull};
  std::vector<std::pair<size_t, size_t>> pairs;
  for (const char* name : kTraces) {
    pairs.emplace_back(SubmitPacking(name, true), SubmitPacking(name, false));
  }
  std::vector<size_t> block_jobs;
  for (uint64_t block : kBlocks) {
    block_jobs.push_back(
        SubmitPacking("ibm18", true, block, static_cast<uint32_t>(block / 400'000)));
  }
  std::printf("%-8s %12s %12s %12s | %12s %12s %10s\n", "trace", "packed$", "unpacked$",
              "saving", "packed op$", "unpacked op$", "op share");
  for (size_t i = 0; i < pairs.size(); ++i) {
    const RunResult& packed = bench::Result(pairs[i].first);
    const RunResult& unpacked = bench::Result(pairs[i].second);
    std::printf("%-8s %12.4f %12.4f %11s | %12.4f %12.4f %9s\n", kTraces[i],
                packed.costs.Total(), unpacked.costs.Total(),
                bench::Percent(1.0 - packed.costs.Total() / unpacked.costs.Total()).c_str(),
                packed.costs.Get(CostCategory::kOperation),
                unpacked.costs.Get(CostCategory::kOperation),
                bench::Percent(unpacked.costs.Get(CostCategory::kOperation) /
                               unpacked.costs.Total())
                    .c_str());
  }
  std::printf("\nBlock-size sweep on ibm18 (smaller objects pack deeper):\n");
  std::printf("%12s %12s %14s\n", "block", "total$", "operation$");
  for (size_t bi = 0; bi < block_jobs.size(); ++bi) {
    const RunResult& r = bench::Result(block_jobs[bi]);
    std::printf("%10.0fMB %12.4f %14.4f\n", static_cast<double>(kBlocks[bi]) / 1e6,
                r.costs.Total(), r.costs.Get(CostCategory::kOperation));
  }
  std::printf("\nPaper: packing saves up to 36%% (IBM 18) / 5%% (IBM 45); op costs avg 4%% "
              "of cross-cloud totals, 8%% cross-region.\n");
  return 0;
}
