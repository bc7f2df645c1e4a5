// Ablation: admission bypass (extension beyond the paper).
//
// When egress is nearly free, caching cannot pay for its packing PUTs and
// capacity; vanilla Macaron converges to Remote *plus* those overheads.
// The admission-bypass extension detects the optimizer pinning the minimum
// candidate capacity and stops admitting, closing most of the gap to
// Remote while leaving normal-price behaviour untouched.

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace macaron;

namespace {

size_t SubmitAt(const std::string& name, double egress_scale, bool bypass) {
  EngineConfig cfg = macaron::bench::DefaultConfig(Approach::kMacaronNoCluster,
                                                   DeploymentScenario::kCrossCloud);
  cfg.prices = cfg.prices.WithEgressScale(egress_scale);
  cfg.enable_admission_bypass = bypass;
  return macaron::bench::Submit(name, cfg);
}

size_t SubmitRemoteAt(const std::string& name, double egress_scale) {
  EngineConfig rc =
      macaron::bench::DefaultConfig(Approach::kRemote, DeploymentScenario::kCrossCloud);
  rc.prices = rc.prices.WithEgressScale(egress_scale);
  return macaron::bench::Submit(name, rc);
}

}  // namespace

int RunAblationAdmissionBypass() {
  bench::PrintHeader("Admission-bypass extension under cheap egress", "extension (§7.6 regime)");
  const double kScales[] = {1.0, 0.01};
  const char* kTraces[] = {"ibm9", "ibm12", "ibm96", "uber1", "vmware"};
  struct Cell {
    size_t remote, mac, byp;
  };
  std::vector<std::vector<Cell>> grid;
  for (double scale : kScales) {
    std::vector<Cell> per_trace;
    for (const char* name : kTraces) {
      Cell c;
      c.remote = SubmitRemoteAt(name, scale);
      c.mac = SubmitAt(name, scale, false);
      c.byp = SubmitAt(name, scale, true);
      per_trace.push_back(c);
    }
    grid.push_back(std::move(per_trace));
  }
  std::printf("%-8s %8s | %10s %12s %12s | %s\n", "trace", "egress", "remote$", "macaron$",
              "mac+bypass$", "bypass effect");
  for (size_t si = 0; si < grid.size(); ++si) {
    const double scale = kScales[si];
    double sum_remote = 0;
    double sum_mac = 0;
    double sum_byp = 0;
    for (size_t ti = 0; ti < grid[si].size(); ++ti) {
      const double remote = bench::Result(grid[si][ti].remote).costs.Total();
      const double mac = bench::Result(grid[si][ti].mac).costs.Total();
      const double byp = bench::Result(grid[si][ti].byp).costs.Total();
      std::printf("%-8s %7.0f%% | %10.4f %12.4f %12.4f | %+6.1f%%\n", kTraces[ti], scale * 100,
                  remote, mac, byp, (byp / mac - 1.0) * 100);
      sum_remote += remote;
      sum_mac += mac;
      sum_byp += byp;
    }
    std::printf("%-8s %7.0f%% | %10.4f %12.4f %12.4f | %+6.1f%%\n\n", "TOTAL", scale * 100,
                sum_remote, sum_mac, sum_byp, (sum_byp / sum_mac - 1.0) * 100);
  }
  std::printf("Expected: no effect at 100%% egress (the optimizer never pins the floor);\n"
              "at 1%% the bypass sheds packing-PUT and capacity overheads on traces where\n"
              "caching cannot pay, moving Macaron toward Remote-plus-VM.\n");
  return 0;
}
