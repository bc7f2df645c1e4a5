// Fig 13 / §7.8: Macaron and Macaron-TTL versus static TTL caches (1h, 12h,
// 24h). Dynamic adjustment should beat every static TTL on average, and
// Macaron-TTL should track Macaron closely.

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace macaron;

namespace {

size_t SubmitStaticTtl(const std::string& name, SimDuration ttl) {
  EngineConfig cfg =
      macaron::bench::DefaultConfig(Approach::kStaticTtl, DeploymentScenario::kCrossCloud);
  cfg.static_ttl = ttl;
  return macaron::bench::Submit(name, cfg);
}

}  // namespace

int RunFig13Ttl() {
  bench::PrintHeader("Macaron / Macaron-TTL vs static TTL caches (cross-cloud)",
                     "Fig 13 / §7.8");
  struct Row {
    std::string name;
    size_t h1, h12, h24, h72, mac, mttl;
  };
  std::vector<Row> grid;
  for (const std::string& name : bench::AllTraceNames()) {
    Row r;
    r.name = name;
    r.h1 = SubmitStaticTtl(name, kHour);
    r.h12 = SubmitStaticTtl(name, 12 * kHour);
    r.h24 = SubmitStaticTtl(name, 24 * kHour);
    r.h72 = SubmitStaticTtl(name, 72 * kHour);
    r.mac = bench::Submit(name, Approach::kMacaronNoCluster, DeploymentScenario::kCrossCloud);
    r.mttl = bench::Submit(name, Approach::kMacaronTtl, DeploymentScenario::kCrossCloud);
    grid.push_back(r);
  }
  std::printf("%-8s %10s %10s %10s %10s %12s %12s\n", "trace", "ttl=1h", "ttl=12h", "ttl=24h",
              "ttl=72h", "macaron", "macaron-ttl");
  double sum_1h = 0, sum_12h = 0, sum_24h = 0, sum_72h = 0, sum_mac = 0, sum_mttl = 0;
  double worst_gap = 0.0;
  for (const Row& row : grid) {
    const double h1 = bench::Result(row.h1).costs.Total();
    const double h12 = bench::Result(row.h12).costs.Total();
    const double h24 = bench::Result(row.h24).costs.Total();
    const double h72 = bench::Result(row.h72).costs.Total();
    const double mac = bench::Result(row.mac).costs.Total();
    const double mttl = bench::Result(row.mttl).costs.Total();
    std::printf("%-8s %10.4f %10.4f %10.4f %10.4f %12.4f %12.4f\n", row.name.c_str(), h1, h12,
                h24, h72, mac, mttl);
    sum_1h += h1;
    sum_12h += h12;
    sum_24h += h24;
    sum_72h += h72;
    sum_mac += mac;
    sum_mttl += mttl;
    worst_gap = std::max(worst_gap, mttl / mac - 1.0);
  }
  std::printf("%-8s %10.4f %10.4f %10.4f %10.4f %12.4f %12.4f\n", "TOTAL", sum_1h, sum_12h,
              sum_24h, sum_72h, sum_mac, sum_mttl);
  std::printf("\nMacaron reductions vs static TTLs: %s (1h), %s (12h), %s (24h)\n",
              bench::Percent(1.0 - sum_mac / sum_1h).c_str(),
              bench::Percent(1.0 - sum_mac / sum_12h).c_str(),
              bench::Percent(1.0 - sum_mac / sum_24h).c_str());
  std::printf("Macaron-TTL vs Macaron: %+0.1f%% total, worst per-trace gap %+0.1f%%\n",
              (sum_mttl / sum_mac - 1.0) * 100, worst_gap * 100);
  std::printf("Paper: avg reductions 22%%/13%%/9%% vs 1h/12h/24h static TTLs; "
              "Macaron-TTL within -0.8..3.3%% of Macaron (17%% outlier on IBM 80).\n");
  return 0;
}
