// Fig 9: the cost-efficient OSC capacity chosen by Macaron, per IBM trace,
// relative to the trace's total data size — there is no single good ratio,
// and the ratio moves day to day.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace macaron;

int RunFig9OscCapacity() {
  bench::PrintHeader("Chosen OSC capacity vs total data size (15 IBM traces)", "Fig 9");
  std::vector<std::pair<std::string, size_t>> jobs;
  for (const std::string& name : bench::IbmTraceNames()) {
    jobs.emplace_back(
        name, bench::Submit(name, Approach::kMacaronNoCluster, DeploymentScenario::kCrossCloud));
  }
  std::printf("%-8s %10s %10s %10s %10s %12s\n", "trace", "dataGB", "avg%", "min%", "max%",
              "stddev(day%)");
  double changes = 0;
  double count = 0;
  for (const auto& [name, job] : jobs) {
    const RunResult& r = bench::Result(job);
    if (r.osc_capacity_timeline.empty()) {
      continue;
    }
    const double data = static_cast<double>(r.dataset_bytes);
    double mn = 1e18;
    double mx = 0;
    double sum = 0;
    // Per-day mean ratios for the day-over-day standard deviation.
    std::vector<double> day_sum(32, 0.0);
    std::vector<int> day_n(32, 0);
    for (const auto& [time, cap] : r.osc_capacity_timeline) {
      const double ratio = static_cast<double>(cap) / data;
      mn = std::min(mn, ratio);
      mx = std::max(mx, ratio);
      sum += ratio;
      const size_t day = static_cast<size_t>(time / kDay);
      if (day < day_sum.size()) {
        day_sum[day] += ratio;
        day_n[day]++;
      }
    }
    const double avg = sum / static_cast<double>(r.osc_capacity_timeline.size());
    std::vector<double> day_means;
    for (size_t d = 0; d < day_sum.size(); ++d) {
      if (day_n[d] > 0) {
        day_means.push_back(day_sum[d] / day_n[d]);
      }
    }
    double mean_of_days = 0;
    for (double v : day_means) {
      mean_of_days += v;
    }
    mean_of_days /= std::max<size_t>(1, day_means.size());
    double var = 0;
    for (double v : day_means) {
      var += (v - mean_of_days) * (v - mean_of_days);
    }
    var /= std::max<size_t>(1, day_means.size());
    std::printf("%-8s %10.2f %9.1f%% %9.1f%% %9.1f%% %11.3f\n", name.c_str(), data / 1e9,
                avg * 100, mn * 100, mx * 100, std::sqrt(var));
    if (mx - mn > 0.005) {
      ++changes;
    }
    ++count;
  }
  std::printf("\n%0.f/%0.f traces adjusted their capacity ratio during the run "
              "(paper: all but one; ratios span 1-98%% with avg day-to-day stddev ~0.1).\n",
              changes, count);
  return 0;
}
