// Fig 8 / §7.3: adaptivity to abrupt workload changes via exponential decay.
// Concatenated IBM traces; compare NoDecay (gamma=1.0), Default (0.2) and
// SmallDecay (0.1) on the cost incurred during the second trace.

#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/trace/concat.h"

using namespace macaron;

namespace {

size_t SubmitWithDecay(const Trace& t, double decay) {
  EngineConfig cfg = bench::DefaultConfig(Approach::kMacaronNoCluster,
                                          DeploymentScenario::kCrossCloud);
  cfg.decay_per_day = decay;
  return bench::Submit(t, cfg);  // ad-hoc trace: keyed by content hash
}

}  // namespace

int RunFig8Adaptivity() {
  bench::PrintHeader("Adaptivity to workload changes (knowledge decay)", "Fig 8 / §7.3");
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"ibm55", "ibm83"}, {"ibm83", "ibm55"}, {"ibm9", "ibm12"},
      {"ibm12", "ibm9"},  {"ibm18", "ibm96"}, {"ibm96", "ibm18"},
  };
  struct Row {
    std::string name;
    size_t none, def, small;
  };
  std::vector<Row> grid;
  for (const auto& [first, second] : pairs) {
    Trace combined = ConcatenateTraces(bench::GetTrace(first), bench::GetTrace(second), kHour);
    Row r;
    r.name = combined.name;
    r.none = SubmitWithDecay(combined, 1.0);
    r.def = SubmitWithDecay(combined, 0.2);
    r.small = SubmitWithDecay(combined, 0.1);
    grid.push_back(r);
  }
  std::printf("%-16s %12s %12s %12s %18s\n", "concatenation", "NoDecay", "Default.2",
              "Small.1", "default vs nodecay");
  int default_wins = 0;
  for (const Row& row : grid) {
    const double none = bench::Result(row.none).costs.Total();
    const double def = bench::Result(row.def).costs.Total();
    const double small = bench::Result(row.small).costs.Total();
    std::printf("%-16s %12.4f %12.4f %12.4f %17s\n", row.name.c_str(), none, def, small,
                bench::Percent(1.0 - def / none).c_str());
    if (def <= none * 1.001) {
      ++default_wins;
    }
  }
  std::printf("\nDefault decay no worse than NoDecay on %d/%zu concatenations "
              "(paper: decay wins on 25/30 pairs, avg 5.2%% savings).\n",
              default_wins, pairs.size());
  return 0;
}
