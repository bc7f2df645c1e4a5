// Regret vs the dollar-exact offline optimum, plus adversarial economics
// scenarios (new; builds on §5.4's Oracular and the Fig 8 adaptivity
// methodology).
//
// Four sections, all scored against the exact per-object DP oracle
// (src/oracle/exact_oracle.h):
//  (a) regret table on IBM traces — Macaron/ECPC/Oracular vs the exact
//      optimum, with the op-free sanity ordering exact <= Oracular (the
//      paper's Oracular assumes zero operation costs, so the like-for-like
//      comparison zeroes GET/PUT prices on the oracle side);
//  (b) price shocks — egress and storage price spikes applied at window
//      boundaries mid-trace in both the engine and the oracle;
//  (c) workload drift and a flash crowd from the synthetic stream
//      generator, materialized once so every comparator replays identical
//      requests;
//  (d) multi-region fan-out with asymmetric per-region price books and the
//      per-region "should this tenant cache at all" crossover verdict.
//
// Regret is computed on the data-cost basket (egress + capacity +
// operation) — the same basket DecisionRecord::realized_cost_usd tracks —
// because the oracle is an idealized comparator with no infrastructure.
//
// The regret reference runs the DP under an op-free price book (get/put
// request prices zeroed), matching §5.4's "perfect packing" assumption for
// Oracular: the engines amortize OSC op charges across packed blocks, so a
// per-object op charge in the oracle is not a lower bound for them. The
// op-free optimum is: exact <= Oracular <= every engine's data cost, all
// by construction. The full-price exact optimum (per-object GET/PUT ops
// charged exactly) is reported alongside as "exact+ops" — the op share it
// exposes is precisely the packing headroom §7.4 measures.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/common/hash.h"

using namespace macaron;

namespace {

double DataCost(const RunResult& r) {
  return r.costs.Get(CostCategory::kEgress) + r.costs.Get(CostCategory::kCapacity) +
         r.costs.Get(CostCategory::kOperation);
}

// Regret-reference config: op-free price book (§5.4 perfect-packing
// assumption), so the DP optimum lower-bounds Oracular and every engine.
// The oracle only reads prices/window/shocks/seed, but it is submitted
// through the sweep like any engine job.
EngineConfig OracleConfig(DeploymentScenario scenario) {
  EngineConfig cfg = bench::DefaultConfig(Approach::kRemote, scenario);
  cfg.prices.get_per_request = 0.0;
  cfg.prices.put_per_request = 0.0;
  return cfg;
}

}  // namespace

int RunRegretEconomics() {
  bench::PrintHeader("Regret vs the dollar-exact offline optimum", "§5.4 ext / Fig 8 method");

  // ---- (a) Regret on IBM traces -------------------------------------
  const std::vector<std::string> traces = {"ibm9", "ibm12", "ibm18",
                                           "ibm55", "ibm83", "ibm96"};
  struct RegretRow {
    std::string name;
    size_t exact, exact_ops, oracular, macaron, ecpc;
  };
  std::vector<RegretRow> rows;
  for (const std::string& name : traces) {
    RegretRow r;
    r.name = name;
    r.exact = bench::Submit(name, OracleConfig(DeploymentScenario::kCrossCloud),
                            sweep::JobEngine::kExactOracle);
    // Diagnostic: the optimum when per-object GET/PUT ops are billed in
    // full (no packing). The gap to `exact` is the op share packing erases.
    r.exact_ops = bench::SubmitExactOracle(name, DeploymentScenario::kCrossCloud);
    r.oracular = bench::SubmitOracle(name, DeploymentScenario::kCrossCloud);
    r.macaron = bench::Submit(name, Approach::kMacaronNoCluster,
                              DeploymentScenario::kCrossCloud);
    r.ecpc = bench::Submit(name, Approach::kEcpc, DeploymentScenario::kCrossCloud);
    rows.push_back(r);
  }

  std::printf("\n(a) Regret table, cross-cloud (data cost: egress+capacity+ops)\n");
  std::printf("%-8s %10s %10s %10s %12s %12s %12s %8s\n", "trace", "exact",
              "exact+ops", "oracular", "macaron", "ecpc", "regret(mac)", "regret%");
  int ordered = 0;  // exact <= oracular <= macaron data cost (all must hold)
  for (const RegretRow& r : rows) {
    const double exact = bench::Result(r.exact).costs.Total();
    const double exact_ops = bench::Result(r.exact_ops).costs.Total();
    const double oracular = bench::Result(r.oracular).costs.Total();
    const double mac = DataCost(bench::Result(r.macaron));
    const double ecpc = DataCost(bench::Result(r.ecpc));
    const double regret = mac - exact;
    std::printf("%-8s %10.4f %10.4f %10.4f %12.4f %12.4f %12.4f %7.1f%%\n",
                r.name.c_str(), exact, exact_ops, oracular, mac, ecpc, regret,
                exact > 0 ? 100.0 * regret / exact : 0.0);
    if (exact <= oracular + 1e-9 && oracular <= mac + 1e-9) {
      ++ordered;
    }
  }
  std::printf("\nexact <= Oracular <= macaron data cost on %d/%zu traces "
              "(must be all %zu).\n",
              ordered, rows.size(), rows.size());

  // ---- (b) Price shocks ---------------------------------------------
  std::printf("\n(b) Mid-trace price shocks (applied at window boundaries)\n");
  const std::string shock_trace = "ibm55";
  const Trace& st = bench::GetTrace(shock_trace);
  const SimTime mid = st.start_time() + st.duration() / 2;
  struct ShockScenario {
    const char* label;
    std::vector<PriceShock> shocks;
  };
  PriceShock egress_spike;
  egress_spike.at = mid;
  egress_spike.egress_scale = 3.0;
  PriceShock storage_spike;
  storage_spike.at = mid;
  storage_spike.storage_scale = 5.0;
  const std::vector<ShockScenario> scenarios = {
      {"baseline", {}},
      {"egress-x3", {egress_spike}},
      {"storage-x5", {storage_spike}},
  };
  struct ShockRow {
    const char* label;
    size_t macaron, exact;
  };
  std::vector<ShockRow> shock_rows;
  for (const ShockScenario& sc : scenarios) {
    EngineConfig mac_cfg = bench::DefaultConfig(Approach::kMacaronNoCluster,
                                                DeploymentScenario::kCrossCloud);
    mac_cfg.price_shocks = sc.shocks;
    EngineConfig oracle_cfg = OracleConfig(DeploymentScenario::kCrossCloud);
    oracle_cfg.price_shocks = sc.shocks;
    ShockRow row;
    row.label = sc.label;
    row.macaron = bench::Submit(shock_trace, mac_cfg);
    row.exact = bench::Submit(shock_trace, oracle_cfg, sweep::JobEngine::kExactOracle);
    shock_rows.push_back(row);
  }
  std::printf("%-12s %12s %12s %12s %8s\n", "scenario", "macaron", "exact", "regret",
              "regret%");
  for (const ShockRow& row : shock_rows) {
    const double mac = DataCost(bench::Result(row.macaron));
    const double exact = bench::Result(row.exact).costs.Total();
    std::printf("%-12s %12.4f %12.4f %12.4f %7.1f%%\n", row.label, mac, exact,
                mac - exact, exact > 0 ? 100.0 * (mac - exact) / exact : 0.0);
  }

  // ---- (c) Drift and flash-crowd streams ----------------------------
  std::printf("\n(c) Workload drift / flash crowd (materialized streams)\n");
  StreamProfile base;
  base.name = "econ-stream-base";
  base.num_requests = 200000;
  base.population = 1ull << 16;
  base.zipf_alpha = 0.9;
  base.duration = 2 * kDay;
  base.mean_object_bytes = 1ull << 20;
  base.put_fraction = 0.1;
  base.seed = 42;

  StreamProfile drift = base;
  drift.name = "econ-stream-drift";
  drift.drift_period = 6 * kHour;

  StreamProfile flash = base;
  flash.name = "econ-stream-flash";
  flash.flash_at = 1 * kDay;
  flash.flash_duration = 2 * kHour;
  flash.flash_fraction = 0.6;
  flash.flash_population = 64;

  struct StreamRow {
    std::string name;
    size_t macaron, exact;
    uint64_t requests;
  };
  std::vector<StreamRow> stream_rows;
  for (const StreamProfile& p : {base, drift, flash}) {
    Trace t = bench::MaterializeStream(p);
    StreamRow row;
    row.name = p.name;
    row.requests = t.requests.size();
    row.macaron = bench::Submit(t, bench::DefaultConfig(Approach::kMacaronNoCluster,
                                                        DeploymentScenario::kCrossCloud));
    row.exact = bench::Submit(std::move(t), OracleConfig(DeploymentScenario::kCrossCloud),
                              sweep::JobEngine::kExactOracle);
    stream_rows.push_back(row);
  }
  std::printf("%-20s %10s %12s %12s %12s %8s\n", "profile", "requests", "macaron",
              "exact", "regret", "hit-rate");
  for (const StreamRow& row : stream_rows) {
    const RunResult& mac = bench::Result(row.macaron);
    const double mac_cost = DataCost(mac);
    const double exact = bench::Result(row.exact).costs.Total();
    const double hit_rate =
        mac.gets > 0 ? static_cast<double>(mac.gets - mac.remote_fetches) /
                           static_cast<double>(mac.gets)
                     : 0.0;
    std::printf("%-20s %10llu %12.4f %12.4f %12.4f %7s\n", row.name.c_str(),
                static_cast<unsigned long long>(row.requests), mac_cost, exact,
                mac_cost - exact, bench::Percent(hit_rate).c_str());
  }

  // ---- (d) Multi-region fan-out -------------------------------------
  std::printf("\n(d) Multi-region fan-out (asymmetric price books + crossover)\n");
  const Trace& fan = bench::GetTrace("ibm83");
  struct Region {
    const char* label;
    DeploymentScenario scenario;
    PriceBook book;
  };
  const std::vector<Region> regions = {
      {"aws-cross-cloud", DeploymentScenario::kCrossCloud,
       PriceBook::Aws(DeploymentScenario::kCrossCloud)},
      {"aws-cross-region", DeploymentScenario::kCrossRegion,
       PriceBook::Aws(DeploymentScenario::kCrossRegion)},
      {"gcp-cross-cloud", DeploymentScenario::kCrossCloud,
       PriceBook::Gcp(DeploymentScenario::kCrossCloud)},
  };
  std::vector<Trace> parts(regions.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    parts[i].name = fan.name + ".r" + std::to_string(i);
  }
  for (const Request& r : fan.requests) {
    parts[Mix64(r.id) % parts.size()].requests.push_back(r);
  }
  std::printf("%-18s %-10s %10s %12s %12s %12s %10s\n", "region", "book", "requests",
              "macaron", "exact", "regret", "caching?");
  double fan_macaron = 0.0;
  double fan_exact = 0.0;
  for (size_t i = 0; i < regions.size(); ++i) {
    EngineConfig cfg =
        bench::DefaultConfig(Approach::kMacaronNoCluster, regions[i].scenario);
    cfg.prices = regions[i].book;
    const size_t mac_idx = bench::Submit(parts[i], cfg);
    EngineConfig oracle_cfg = OracleConfig(regions[i].scenario);
    oracle_cfg.prices = regions[i].book;
    oracle_cfg.prices.get_per_request = 0.0;  // keep the op-free reference basket
    oracle_cfg.prices.put_per_request = 0.0;
    const ExactOracleResult exact = bench::RunExact(parts[i], oracle_cfg);
    const double mac = DataCost(bench::Result(mac_idx));
    fan_macaron += mac;
    fan_exact += exact.costs.Total();
    std::printf("%-18s %-10s %10zu %12.4f %12.4f %12.4f %10s\n", regions[i].label,
                regions[i].book.name.c_str(), parts[i].requests.size(), mac,
                exact.costs.Total(), mac - exact.costs.Total(),
                exact.caching_pays ? "yes" : "no");
  }
  std::printf("\nfan-out total: macaron %.4f vs exact %.4f (regret %.4f, %.1f%%)\n",
              fan_macaron, fan_exact, fan_macaron - fan_exact,
              fan_exact > 0 ? 100.0 * (fan_macaron - fan_exact) / fan_exact : 0.0);
  return 0;
}
