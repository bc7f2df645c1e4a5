// §5.3: observation-period policy. Caching everything during the first day
// versus caching nothing until optimization starts (paper: cache-all saves
// ~37% on average because day-1 egress for repeated data dominates the cheap
// storage).

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace macaron;

int RunSec53Observation() {
  bench::PrintHeader("Observation-period policy: cache-all vs cache-none", "§5.3");
  struct Row {
    std::string name;
    size_t all, day1_remote, rest_adaptive;
  };
  std::vector<Row> grid;
  for (const std::string& name : bench::AllTraceNames()) {
    const Trace& t = bench::GetTrace(name);
    Row row;
    row.name = name;
    // Cache-all: the default (observation = 1 day, everything admitted).
    row.all = bench::Submit(name, Approach::kMacaronNoCluster, DeploymentScenario::kCrossCloud);
    // Cache-none during observation: nothing is stored on day 1, so day 1
    // pays full remote egress; afterwards the cache warms and optimizes as
    // usual. Model as: remote cost of the day-1 slice + adaptive cost of
    // the remainder (started cold). The slices are ad-hoc traces, keyed by
    // content hash.
    Trace day1;
    Trace rest;
    day1.name = t.name + "-day1";
    rest.name = t.name + "-rest";
    for (const Request& r : t.requests) {
      (r.time < kDay ? day1 : rest).requests.push_back(r);
    }
    row.day1_remote = bench::Submit(
        std::move(day1), bench::DefaultConfig(Approach::kRemote, DeploymentScenario::kCrossCloud));
    row.rest_adaptive = bench::Submit(
        std::move(rest),
        bench::DefaultConfig(Approach::kMacaronNoCluster, DeploymentScenario::kCrossCloud));
    grid.push_back(std::move(row));
  }
  std::printf("%-8s %14s %14s %12s\n", "trace", "cache-all$", "cache-none$", "saving");
  double sum_all = 0, sum_none = 0;
  for (const Row& row : grid) {
    const double all = bench::Result(row.all).costs.Total();
    const double none =
        bench::Result(row.day1_remote).costs.Total() + bench::Result(row.rest_adaptive).costs.Total();
    std::printf("%-8s %14.4f %14.4f %11s\n", row.name.c_str(), all, none,
                bench::Percent(1.0 - all / none).c_str());
    sum_all += all;
    sum_none += none;
  }
  std::printf("\nOverall: storing everything during observation saves %s "
              "(paper: ~37%% on average).\n",
              bench::Percent(1.0 - sum_all / sum_none).c_str());
  return 0;
}
