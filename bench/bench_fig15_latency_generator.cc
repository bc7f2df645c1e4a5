// Fig 15 / Appendix A.5: validation of the simulator's Gamma latency
// generator — per (data source, object size), the fitted distribution's mean
// and spread must match the cloud ("ground truth") measurements.

#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "src/cloudsim/latency.h"
#include "src/common/stats.h"

using namespace macaron;

int RunFig15LatencyGenerator() {
  bench::PrintHeader("Gamma latency generator vs measured distributions",
                     "Fig 15 / Appendix A.5");
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 1000, 77);
  Rng rng(99);
  double mape_sum = 0.0;
  int mape_n = 0;
  for (int s = 0; s < static_cast<int>(DataSource::kNumSources); ++s) {
    const DataSource source = static_cast<DataSource>(s);
    std::printf("\n%s:\n%10s %12s %12s %8s %12s %12s\n", DataSourceName(source), "size",
                "meas mean", "gen mean", "err%", "meas p95", "gen p95");
    for (uint64_t size : FittedLatencyGenerator::BucketSizes()) {
      PercentileTracker measured;
      PercentileTracker generated;
      for (int i = 0; i < 4000; ++i) {
        measured.Add(truth.SampleMs(source, size, rng));
        generated.Add(gen.SampleMs(source, size, rng));
      }
      const double err = std::abs(generated.Mean() / measured.Mean() - 1.0);
      mape_sum += err;
      ++mape_n;
      std::printf("%9.0fK %12.2f %12.2f %7.1f%% %12.2f %12.2f\n",
                  static_cast<double>(size) / 1000.0, measured.Mean(), generated.Mean(),
                  err * 100, measured.Quantile(0.95), generated.Quantile(0.95));
    }
  }
  const double mape = mape_sum / mape_n;
  std::printf("\nMean absolute percentage error of generated means: %.2f%% "
              "(paper: ~2%% per-hop, ~1.5%% end-to-end)\n",
              mape * 100);
  return mape < 0.05 ? 0 : 1;
}
