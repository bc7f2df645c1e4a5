// replaybench: one-command benchmark of the Macaron simulator.
//
//   replaybench --workload serve_dense|window_churn|sweep_cold --seed N
//               --seconds S --trace 0|1 [--scratch DIR]
//
// --trace 0 runs the timed workload and prints the end-to-end metrics;
// --trace 1 runs the traced per-layer measurements instead. Either way the
// last stdout line is one JSON object {correct, attempted, failed, metrics}
// and the exit code is non-zero if any correctness check failed.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench/harness.h"
#include "replaybench/src/layers.h"
#include "replaybench/src/util.h"
#include "replaybench/src/workloads.h"
#include "src/cache/simd.h"
#include "src/trace/column_sample.h"

#ifndef REPLAYBENCH_BUILD_TYPE
#define REPLAYBENCH_BUILD_TYPE "unknown"
#endif
#ifndef REPLAYBENCH_COMPILER
#define REPLAYBENCH_COMPILER "unknown"
#endif

namespace replaybench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string scratch = ".bench_build/replaybench-tmp";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--scratch") {
      a->scratch = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

bool ReleaseBuild() {
  return macaron::bench::OptimizedBuild() && std::string(REPLAYBENCH_BUILD_TYPE) == "Release";
}

void PrintContext(const Args& a, const Threads& t) {
  std::printf("replaybench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              a.workload.c_str(), a.seed, a.seconds, a.trace);
  std::printf(
      "context nproc=%d shard_threads_mt=%d shard_threads_1t=1 decode_ahead_workers=1 "
      "sweep_threads=%d build=%s compiler=\"%s\" simd=%s observe_kernel=\"%s\"\n",
      t.nproc, t.shard_threads_mt, t.sweep_threads, REPLAYBENCH_BUILD_TYPE, REPLAYBENCH_COMPILER,
      macaron::SimdFeatureString(), macaron::ColumnSampleFeatureString());
  if (!ReleaseBuild()) {
    const char* banner =
        "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n"
        "!! WARNING: replaybench was built as '" REPLAYBENCH_BUILD_TYPE "', not Release.\n"
        "!! Performance claims are Release-only; these timings do not count.\n"
        "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n";
    std::fputs(banner, stderr);
    std::fputs(banner, stdout);
  }
}

// The final line: {"correct", "attempted", "failed", "metrics"}.
void PrintResultJson(const std::vector<Metric>& metrics, const CheckLog& checks) {
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadKind kind;
  if (!ParseArgs(argc, argv, &args) || !ParseWorkload(args.workload, &kind)) {
    std::fprintf(stderr,
                 "usage: replaybench --workload serve_dense|window_churn|sweep_cold --seed N "
                 "--seconds S --trace 0|1 [--scratch DIR]\n");
    return 2;
  }
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.threads = Threads::Detect();
  ctx.scratch_dir = args.scratch;
  std::filesystem::create_directories(ctx.scratch_dir);
  PrintContext(args, ctx.threads);
  std::fflush(stdout);

  const Outcome out = args.trace == 0 ? RunTimed(kind, ctx) : RunTraced(kind, ctx);
  for (const std::string& note : out.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const Metric& m : out.metrics) {
    if (m.maps_to.empty()) {
      std::printf("metric %-32s %16.6g %-6s\n", m.name.c_str(), m.value, m.unit.c_str());
    } else {
      std::printf("layer  %-32s %16.6g %-6s -> %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.maps_to.c_str());
    }
  }
  std::printf("failed_runs %d count (of %d runs attempted)\n", out.checks.failed,
              out.checks.attempted);
  for (const std::string& f : out.checks.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  PrintResultJson(out.metrics, out.checks);
  return out.checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace replaybench

int main(int argc, char** argv) {
  try {
    return replaybench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replaybench: %s\n", e.what());
    return 3;
  }
}
