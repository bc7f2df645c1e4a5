// bench_all: regenerates the full figure/table suite in one process.
//
// Every figure submits its (trace, config) grid through the shared sweep
// scheduler, so one process reuses trace generation across figures, fans
// simulations across cores, deduplicates rows shared by several figures
// (e.g. the default Macaron run appears in Fig 1, Fig 7, §5.3, §7.7), and
// memoizes results into the persistent cache — a warm rerun does no
// simulation work at all. Figure output is printed in canonical order and
// is bit-identical to running the figures one at a time (--only NAME).
//
// Usage:
//   bench_all [--threads N] [--cache-dir DIR] [--cold] [--only SUBSTR]
//             [--json PATH] [--metrics] [--metrics-dir DIR] [--list]
//             [--compare BASELINE.json] [--compare-threshold PCT]
//
//   --threads N      worker threads, N >= 1 (default: hardware cores)
//   --cache-dir D    persistent result cache (default .macaron-results;
//                    "off" or "0" disables)
//   --cold           delete cached .run results first (forces simulation)
//   --only S         run only figures whose name contains S (repeatable;
//                    a pattern that matches no figure is an error)
//   --json PATH      write per-figure wall-clock + scheduler stats to PATH
//                    (default: no report; "off" also writes none). The
//                    committed BENCH_sweep.json baseline is re-recorded only
//                    by asking for it: --json BENCH_sweep.json
//   --metrics        write per-job decision traces + metrics registries
//                    (JSONL/JSON under --metrics-dir; stderr-only reporting,
//                    figure stdout stays byte-identical)
//   --metrics-dir D  observability output directory (default
//                    .macaron-metrics; implies --metrics)
//   --list           print figure names and exit
//   --compare B      after the run, diff per-figure wall clock and scheduler
//                    busy-seconds against a BENCH_sweep.json recorded by a
//                    previous run (the --json output); prints one delta line
//                    per figure and exits 3 if anything regressed beyond the
//                    threshold. Meaningful for like-for-like runs (both
//                    --cold, same --threads); the delta report goes to
//                    stderr so figure stdout stays byte-identical.
//   --compare-threshold PCT
//                    regression tolerance for --compare, percent (default
//                    15; small figures additionally get a 50 ms floor so
//                    scheduler jitter does not trip the gate)
//
// A malformed number, a thread count below 1 or an --only pattern that
// names no figure exits 2 before any figure runs.
//
// Only simulated jobs emit traces: a result served from a warm cache ran no
// controller, so --metrics over a warm store writes nothing. Combine with
// --cold to trace every job.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/cache/simd.h"
#include "src/common/thread_pool.h"

// The per-figure entry points, one per figure source.
int RunTable1Pricing();
int RunTable2Traces();
int RunFig1TotalCost();
int RunFig4Curves();
int RunFig5AlcAccuracy();
int RunFig7CostBreakdown();
int RunFig8Adaptivity();
int RunFig9OscCapacity();
int RunFig10CostCurves();
int RunFig11Latency();
int RunFig12aEgressSensitivity();
int RunFig12bDarkData();
int RunFig13Ttl();
int RunTable3Validation();
int RunFig15LatencyGenerator();
int RunSec52MinisimAccuracy();
int RunSec53Observation();
int RunSec73ReconfigWindow();
int RunSec74Packing();
int RunSec77Overhead();
int RunAblationEvictionPolicy();
int RunAblationFlashTier();
int RunAblationAdmissionBypass();
int RunAblationPriming();
int RunRegretEconomics();

using namespace macaron;

namespace {

struct Figure {
  const char* name;  // short id for --only and --list
  const char* ref;   // paper figure/table reference
  int (*fn)();
};

// All figures in canonical (paper) order.
constexpr Figure kFigures[] = {
    {"table1_pricing", "Table 1", &RunTable1Pricing},
    {"table2_traces", "Table 2", &RunTable2Traces},
    {"fig1_total_cost", "Fig 1b", &RunFig1TotalCost},
    {"fig4_curves", "Fig 4", &RunFig4Curves},
    {"fig5_alc_accuracy", "Fig 5", &RunFig5AlcAccuracy},
    {"fig7_cost_breakdown", "Fig 7 / Fig 14", &RunFig7CostBreakdown},
    {"fig8_adaptivity", "Fig 8", &RunFig8Adaptivity},
    {"fig9_osc_capacity", "Fig 9", &RunFig9OscCapacity},
    {"fig10_cost_curves", "Fig 10", &RunFig10CostCurves},
    {"fig11_latency", "Fig 11", &RunFig11Latency},
    {"fig12a_egress_sensitivity", "Fig 12a", &RunFig12aEgressSensitivity},
    {"fig12b_dark_data", "Fig 12b", &RunFig12bDarkData},
    {"fig13_ttl", "Fig 13", &RunFig13Ttl},
    {"table3_validation", "Table 3", &RunTable3Validation},
    {"fig15_latency_generator", "Fig 15", &RunFig15LatencyGenerator},
    {"sec52_minisim_accuracy", "S5.2", &RunSec52MinisimAccuracy},
    {"sec53_observation", "S5.3", &RunSec53Observation},
    {"sec73_reconfig_window", "S7.3", &RunSec73ReconfigWindow},
    {"sec74_packing", "S7.4", &RunSec74Packing},
    {"sec77_overhead", "S7.7", &RunSec77Overhead},
    {"ablation_eviction_policy", "S4.2/S8", &RunAblationEvictionPolicy},
    {"ablation_flash_tier", "S4.1", &RunAblationFlashTier},
    {"ablation_admission_bypass", "ext", &RunAblationAdmissionBypass},
    {"ablation_priming", "S6.2", &RunAblationPriming},
    {"regret_economics", "S5.4 ext", &RunRegretEconomics},
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

int WipeStore(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  int removed = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".run" && fs::remove(entry.path(), ec)) {
      ++removed;
    }
  }
  return removed;
}

struct FigureTiming {
  std::string name;
  double seconds = 0.0;
  int exit_code = 0;
};

void WriteJson(const std::string& path, int threads, double total_seconds,
               const std::vector<FigureTiming>& timings, const sweep::SweepStats& stats) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_all: cannot write %s\n", path.c_str());
    return;
  }
  // "macaron_simd" mirrors bench_micro's custom context: which cache-core
  // probe path this binary compiled (results are identical either way; only
  // the timings differ).
  std::fprintf(f, "{\n  \"threads\": %d,\n  \"macaron_simd\": \"%s\",\n  \"total_seconds\": %.3f,\n",
               threads, SimdFeatureString(), total_seconds);
  std::fprintf(f,
               "  \"jobs\": {\"submitted\": %zu, \"unique\": %zu, \"executed\": %zu, "
               "\"store_hits\": %zu, \"peak_in_flight\": %d, \"busy_seconds\": %.3f},\n",
               stats.submitted, stats.unique, stats.executed, stats.store_hits,
               stats.peak_in_flight, stats.busy_seconds);
  std::fprintf(f, "  \"figures\": [\n");
  for (size_t i = 0; i < timings.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"seconds\": %.3f, \"exit_code\": %d}%s\n",
                 timings[i].name.c_str(), timings[i].seconds, timings[i].exit_code,
                 i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// Baseline data mined from a previous run's --json report. The file format
// is our own WriteJson output, so a targeted scan beats dragging in a JSON
// parser: one "busy_seconds" scalar plus {"name", "seconds"} per figure.
struct Baseline {
  bool ok = false;
  double busy_seconds = -1.0;
  std::vector<std::pair<std::string, double>> figure_seconds;
};

Baseline ReadBaseline(const std::string& path) {
  Baseline b;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return b;
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  const auto find_double_after = [&](const char* key, size_t from, double* out) -> size_t {
    const size_t k = text.find(key, from);
    if (k == std::string::npos) {
      return std::string::npos;
    }
    const size_t colon = text.find(':', k);
    if (colon == std::string::npos) {
      return std::string::npos;
    }
    *out = std::strtod(text.c_str() + colon + 1, nullptr);
    return colon;
  };

  double busy = -1.0;
  if (find_double_after("\"busy_seconds\"", 0, &busy) != std::string::npos) {
    b.busy_seconds = busy;
  }
  size_t pos = text.find("\"figures\"");
  while (pos != std::string::npos) {
    const size_t name_key = text.find("\"name\"", pos);
    if (name_key == std::string::npos) {
      break;
    }
    const size_t open = text.find('"', text.find(':', name_key) + 1);
    const size_t close = open == std::string::npos ? std::string::npos : text.find('"', open + 1);
    if (close == std::string::npos) {
      break;
    }
    double seconds = 0.0;
    const size_t spos = find_double_after("\"seconds\"", close, &seconds);
    if (spos == std::string::npos) {
      break;
    }
    b.figure_seconds.emplace_back(text.substr(open + 1, close - open - 1), seconds);
    pos = spos;
  }
  b.ok = !b.figure_seconds.empty() || b.busy_seconds >= 0.0;
  return b;
}

// Per-figure wall-clock deltas vs the baseline, to stderr (figure stdout
// must stay byte-identical under --compare). Returns the number of
// regressions beyond `threshold_pct` — with an absolute 50 ms floor so the
// gate measures the simulator, not scheduler jitter on sub-100 ms figures.
int CompareWithBaseline(const Baseline& base, double threshold_pct,
                        const std::vector<FigureTiming>& timings,
                        const sweep::SweepStats& stats) {
  constexpr double kAbsFloorSeconds = 0.05;
  int regressions = 0;
  std::fprintf(stderr, "\nbench_all: --compare deltas (threshold %+.0f%%)\n", threshold_pct);
  for (const FigureTiming& ft : timings) {
    double base_seconds = -1.0;
    for (const auto& [name, seconds] : base.figure_seconds) {
      if (name == ft.name) {
        base_seconds = seconds;
        break;
      }
    }
    if (base_seconds < 0.0) {
      std::fprintf(stderr, "  %-28s %7.3fs  (not in baseline)\n", ft.name.c_str(), ft.seconds);
      continue;
    }
    const double delta = ft.seconds - base_seconds;
    const double pct = base_seconds > 0.0 ? 100.0 * delta / base_seconds : 0.0;
    const bool regressed =
        delta > kAbsFloorSeconds && base_seconds > 0.0 && pct > threshold_pct;
    std::fprintf(stderr, "  %-28s %7.3fs vs %7.3fs  %+7.1f%%%s\n", ft.name.c_str(), ft.seconds,
                 base_seconds, pct, regressed ? "  [REGRESSION]" : "");
    regressions += regressed ? 1 : 0;
  }
  if (base.busy_seconds >= 0.0) {
    const double delta = stats.busy_seconds - base.busy_seconds;
    const double pct = base.busy_seconds > 0.0 ? 100.0 * delta / base.busy_seconds : 0.0;
    const bool regressed =
        delta > kAbsFloorSeconds && base.busy_seconds > 0.0 && pct > threshold_pct;
    std::fprintf(stderr, "  %-28s %7.3fs vs %7.3fs  %+7.1f%%%s\n", "(scheduler busy)",
                 stats.busy_seconds, base.busy_seconds, pct, regressed ? "  [REGRESSION]" : "");
    regressions += regressed ? 1 : 0;
  }
  return regressions;
}

// The whole of `v` as a T; exits 2 on an empty value, trailing garbage or
// a value out of T's range.
template <typename T>
T ParseNumber(const char* flag, const std::string& v) {
  T out{};
  const char* end = v.data() + v.size();
  const auto [stop, ec] = std::from_chars(v.data(), end, out);
  if (v.empty() || ec != std::errc() || stop != end) {
    std::fprintf(stderr, "bench_all: %s '%s' is not a valid number\n", flag, v.c_str());
    std::exit(2);
  }
  return out;
}

// --only selects figures whose name contains the pattern.
bool Matches(const Figure& f, const std::string& pattern) {
  return std::strstr(f.name, pattern.c_str()) != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  macaron::bench::WarnIfUnoptimizedBuild("bench_all");
  int threads = ThreadPool::HardwareConcurrency();
  std::string cache_dir = ".macaron-results";
  bool cold = false;
  bool list = false;
  bool metrics = false;
  std::string metrics_dir = ".macaron-metrics";
  std::string json_path;
  std::string compare_path;
  double compare_threshold = 15.0;
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both --flag=value (the simulate CLI idiom) and --flag value.
    std::string inline_value;
    bool has_inline_value = false;
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      has_inline_value = true;
      arg.resize(eq);
    }
    auto next = [&](const char* flag) -> std::string {
      if (has_inline_value) {
        return inline_value;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_all: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--threads") {
      threads = ParseNumber<int>("--threads", next("--threads"));
      if (threads < 1) {
        std::fprintf(stderr, "bench_all: --threads must be at least 1\n");
        return 2;
      }
    } else if (arg == "--cache-dir") {
      cache_dir = next("--cache-dir");
    } else if (arg == "--cold") {
      cold = true;
    } else if (arg == "--only") {
      only.push_back(next("--only"));
    } else if (arg == "--json") {
      json_path = next("--json");
    } else if (arg == "--compare") {
      compare_path = next("--compare");
    } else if (arg == "--compare-threshold") {
      compare_threshold = ParseNumber<double>("--compare-threshold", next("--compare-threshold"));
      if (!(compare_threshold >= 0.0)) {
        std::fprintf(stderr, "bench_all: --compare-threshold must be non-negative\n");
        return 2;
      }
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--metrics-dir") {
      metrics_dir = next("--metrics-dir");
      metrics = true;
    } else if (arg == "--list") {
      list = true;
    } else {
      std::fprintf(stderr, "bench_all: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  for (const std::string& pat : only) {
    if (std::none_of(std::begin(kFigures), std::end(kFigures),
                     [&](const Figure& f) { return Matches(f, pat); })) {
      std::fprintf(stderr, "bench_all: --only %s matches no figure (see --list)\n", pat.c_str());
      return 2;
    }
  }

  if (list) {
    for (const Figure& f : kFigures) {
      std::printf("%-28s %s\n", f.name, f.ref);
    }
    return 0;
  }

  if (cache_dir == "off" || cache_dir == "0") {
    cache_dir.clear();  // persistence disabled
  }
  bench::ConfigureSweep(threads, cache_dir, metrics ? metrics_dir : "");
  if (cold && !cache_dir.empty()) {
    const int removed = WipeStore(cache_dir);
    std::fprintf(stderr, "bench_all: --cold removed %d cached results from %s\n", removed,
                 cache_dir.c_str());
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<FigureTiming> timings;
  int failures = 0;
  for (const Figure& f : kFigures) {
    if (!only.empty() && std::none_of(only.begin(), only.end(), [&](const std::string& pat) {
          return Matches(f, pat);
        })) {
      continue;
    }
    const auto fig_start = std::chrono::steady_clock::now();
    FigureTiming ft;
    ft.name = f.name;
    ft.exit_code = f.fn();
    ft.seconds = SecondsSince(fig_start);
    std::fflush(stdout);
    std::fprintf(stderr, "bench_all: %-28s %7.2fs%s\n", f.name, ft.seconds,
                 ft.exit_code == 0 ? "" : "  [nonzero exit]");
    if (ft.exit_code != 0) {
      ++failures;
    }
    timings.push_back(ft);
  }
  const double total = SecondsSince(t0);

  const sweep::SweepStats stats = bench::SharedSweep().stats();
  std::fprintf(stderr,
               "\nbench_all: %zu figures in %.2fs | threads %d | jobs: %zu submitted, "
               "%zu unique, %zu simulated, %zu from cache, peak %d in flight, "
               "%.1fs busy\n",
               timings.size(), total, bench::SharedSweep().threads(), stats.submitted,
               stats.unique, stats.executed, stats.store_hits, stats.peak_in_flight,
               stats.busy_seconds);
  if (json_path != "off" && !json_path.empty()) {
    WriteJson(json_path, bench::SharedSweep().threads(), total, timings, stats);
    std::fprintf(stderr, "bench_all: wrote %s\n", json_path.c_str());
  }
  if (metrics) {
    // stderr only: figure stdout must stay byte-identical with/without
    // --metrics (the acceptance check diffs the two).
    std::fprintf(stderr,
                 "bench_all: decision traces + metrics for %zu simulated jobs in %s "
                 "(warm-cache jobs emit none)\n",
                 stats.executed, metrics_dir.c_str());
  }
  if (!compare_path.empty()) {
    const Baseline base = ReadBaseline(compare_path);
    if (!base.ok) {
      std::fprintf(stderr, "bench_all: --compare cannot read %s\n", compare_path.c_str());
      return 2;
    }
    const int regressions = CompareWithBaseline(base, compare_threshold, timings, stats);
    if (regressions > 0) {
      std::fprintf(stderr, "bench_all: %d figure(s) regressed beyond %.0f%%\n", regressions,
                   compare_threshold);
      return failures == 0 ? 3 : 1;
    }
  }
  return failures == 0 ? 0 : 1;
}
