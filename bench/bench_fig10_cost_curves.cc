// Fig 10: expected-cost curves and the cost of choosing wrong — applying
// IBM 55's cost-efficient capacity *ratio* to IBM 83 inflates IBM 83's
// expected cost versus Macaron's own choice (paper: ~1.5x).

#include <cstdio>

#include "bench/harness.h"
#include "src/controller/controller.h"

using namespace macaron;

namespace {

// Runs the controller over `trace` and returns the final optimized decision.
ReconfigDecision FinalDecision(const Trace& t) {
  const TraceStats stats = ComputeStats(t);
  const PriceBook prices =
      ScaledInfraPrices(PriceBook::Aws(DeploymentScenario::kCrossCloud), 1e-3);
  ControllerConfig cc;
  cc.analyzer.sampling_ratio = 0.25;
  cc.analyzer.num_minicaches = 48;
  cc.analyzer.min_capacity_bytes = 50'000'000;
  cc.analyzer.max_capacity_bytes = static_cast<uint64_t>(stats.unique_bytes * 1.15);
  MacaronController controller(cc, prices, nullptr);
  SimTime boundary = cc.window;
  ReconfigDecision last;
  for (const Request& r : t.requests) {
    while (r.time >= boundary) {
      ReconfigDecision d = controller.Reconfigure(boundary, 0);
      if (d.optimized) {
        last = std::move(d);
      }
      boundary += cc.window;
    }
    controller.Observe(r);
  }
  return last;
}

}  // namespace

int RunFig10CostCurves() {
  bench::PrintHeader("Expected-cost curves; penalty of sub-optimal sizing", "Fig 10");
  const Trace& t55 = bench::GetTrace("ibm55");
  const Trace& t83 = bench::GetTrace("ibm83");
  const ReconfigDecision d55 = FinalDecision(t55);
  const ReconfigDecision d83 = FinalDecision(t83);
  const double data55 = static_cast<double>(ComputeStats(t55).unique_bytes);
  const double data83 = static_cast<double>(ComputeStats(t83).unique_bytes);

  auto print_curve = [](const char* name, const Curve& c) {
    std::printf("\n%s expected-cost curve ($/window):\n%14s %14s\n", name, "capacityGB",
                "expected$");
    const size_t best = c.ArgMin();
    for (size_t i = 0; i < c.size(); i += 4) {
      std::printf("%14.3f %14.6f%s\n", c.x(i) / 1e9, c.y(i), i == best ? "   <-- min" : "");
    }
  };
  print_curve("IBM 55", d55.cost_curve);
  print_curve("IBM 83", d83.cost_curve);

  const double ratio55 = static_cast<double>(d55.osc_capacity) / data55;
  const double transplanted_capacity = ratio55 * data83;
  const double own = d83.cost_curve.y(d83.cost_curve.ArgMin());
  const double transplanted = d83.cost_curve.Value(transplanted_capacity);
  std::printf("\nIBM 55 cost-efficient ratio: %.1f%% of data; IBM 83's own choice: %.1f%%\n",
              ratio55 * 100,
              static_cast<double>(d83.osc_capacity) / data83 * 100);
  std::printf("Applying IBM 55's ratio to IBM 83: expected cost %.6f vs optimal %.6f "
              "(%.2fx; paper: ~1.5x)\n",
              transplanted, own, transplanted / own);
  return 0;
}
