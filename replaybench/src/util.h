// Small helpers shared by the benchmark program: host-time clocks, order
// statistics, peak RSS, a content hash for result digests, and the metric
// table the program prints.

#ifndef REPLAYBENCH_SRC_UTIL_H_
#define REPLAYBENCH_SRC_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace replaybench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Nearest-rank quantile (q in [0, 1]) of `v`; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

// Median with the usual midpoint for even counts.
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile (whole percent) that still has at least `beyond`
// samples above it, for a sample of `n`; 0 when n <= beyond.
inline int TailPercentile(size_t n, size_t beyond) {
  for (int p = 99; p > 0; --p) {
    if (static_cast<double>(n) * (100 - p) / 100.0 >= static_cast<double>(beyond)) {
      return p;
    }
  }
  return 0;
}

// CPU seconds (user + system) of every thread of this process so far,
// exited threads included.
inline double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

inline double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// FNV-1a 64 over a byte string: the digest of serialized results.
inline uint64_t Fnv1a64(std::string_view bytes, uint64_t h = 1469598103934665603ull) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

inline double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// One printed metric: its value, unit, and (for per-layer metrics) the
// end-to-end metric and workload it is expected to move.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string maps_to;  // empty for end-to-end metrics
};

}  // namespace replaybench

#endif  // REPLAYBENCH_SRC_UTIL_H_
