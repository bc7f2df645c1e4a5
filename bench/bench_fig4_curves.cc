// Fig 4: the curves the optimizer consumes for trace IBM 55 — (a) the
// expected total cost curve over OSC capacity (with the chosen minimum) and
// (b) the predicted average latency curve over cache cluster capacity (with
// the capacity meeting the latency target).

#include <cstdio>

#include "bench/harness.h"
#include "src/controller/controller.h"

using namespace macaron;

int RunFig4Curves() {
  bench::PrintHeader("Optimizer input curves for IBM 55", "Fig 4");
  const Trace& t = bench::GetTrace("ibm55");
  const TraceStats stats = ComputeStats(t);

  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator fitted(truth, 400, 11);
  const PriceBook prices =
      ScaledInfraPrices(PriceBook::Aws(DeploymentScenario::kCrossCloud), 1e-3);

  ControllerConfig cc;
  cc.enable_cluster = true;
  cc.analyzer.enable_alc = true;
  cc.analyzer.sampling_ratio = 0.25;
  cc.analyzer.num_minicaches = 32;
  cc.analyzer.min_capacity_bytes = 50'000'000;
  cc.analyzer.max_capacity_bytes = static_cast<uint64_t>(stats.unique_bytes * 1.15);
  cc.cluster_latency_target_ms = fitted.FittedMeanMs(DataSource::kOsc, stats.median_object_bytes);
  MacaronController controller(cc, prices, &fitted);

  // Drive the first three days through the controller.
  SimTime next_boundary = cc.window;
  ReconfigDecision last;
  for (const Request& r : t.requests) {
    if (r.time > 3 * kDay) {
      break;
    }
    while (r.time >= next_boundary) {
      ReconfigDecision d = controller.Reconfigure(next_boundary, 0);
      if (d.optimized) {
        last = std::move(d);
      }
      next_boundary += cc.window;
    }
    controller.Observe(r);
  }

  std::printf("\n(a) Expected cost curve (dollars per 15-min window)\n");
  std::printf("%14s %14s\n", "capacityGB", "expected$");
  const size_t best = last.cost_curve.ArgMin();
  for (size_t i = 0; i < last.cost_curve.size(); i += 2) {
    std::printf("%14.3f %14.6f%s\n", last.cost_curve.x(i) / 1e9, last.cost_curve.y(i),
                i == best ? "   <-- chosen (min cost)" : "");
  }
  std::printf("chosen OSC capacity: %.3f GB (dataset %.3f GB)\n", last.cost_curve.x(best) / 1e9,
              static_cast<double>(stats.unique_bytes) / 1e9);

  if (last.latest_alc.has_value()) {
    std::printf("\n(b) Average latency curve (vs cache cluster capacity)\n");
    std::printf("%14s %14s   target=%.1f ms\n", "clusterGB", "avg ms",
                cc.cluster_latency_target_ms);
    const Curve& alc = *last.latest_alc;
    for (size_t i = 0; i < alc.size(); i += 2) {
      std::printf("%14.3f %14.2f%s\n", alc.x(i) / 1e9, alc.y(i),
                  alc.y(i) <= cc.cluster_latency_target_ms && (i < 2 || alc.y(i - 2) >
                  cc.cluster_latency_target_ms)
                      ? "   <-- first below target"
                      : "");
    }
    std::printf("cluster decision: %zu nodes\n", last.cluster_nodes);
  }
  std::printf("\nPaper shape: cost curve falls steeply (egress-dominated) then rises "
              "slowly (capacity-dominated); ALC decreases with cluster size until the "
              "hot set fits.\n");
  return 0;
}
