// Shared helpers for the experiment harnesses.
//
// Each figure harness regenerates one table or figure from the paper: it
// builds the synthetic trace suite, runs the relevant approaches, and prints
// the same rows/series the paper reports. Absolute dollar values differ
// from the paper (traces are synthetic and byte-scaled); the shapes —
// who wins, by what factor, where crossovers fall — are the reproduction
// target (see EXPERIMENTS.md).
//
// All simulation goes through a shared SweepScheduler (src/sweep): figures
// submit their full (trace, config) grid up front, then collect results by
// submission index, so rows print bit-identically to a serial run while the
// actual simulations fan out across cores and memoize into the persistent
// result cache. bench_all sets the thread count, cache directory and
// observability directory from its flags through ConfigureSweep.

#ifndef MACARON_BENCH_HARNESS_H_
#define MACARON_BENCH_HARNESS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/oracle/exact_oracle.h"
#include "src/sim/engine_config.h"
#include "src/sim/run_result.h"
#include "src/sweep/scheduler.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace.h"

namespace macaron {
namespace bench {

// Generates (and memoizes) the split trace for a workload profile name; the
// sweep's trace provider resolves names through the same memo. Thread-safe:
// concurrent callers for the same name block on one generation. Traces are
// never dropped, so the reference stays valid for the process lifetime.
const Trace& GetTrace(const std::string& name);

// Names of all 19 workloads / the 15 IBM workloads.
std::vector<std::string> AllTraceNames();
std::vector<std::string> IbmTraceNames();

// Default engine configuration for a deployment scenario.
EngineConfig DefaultConfig(Approach a, DeploymentScenario scenario,
                           bool measure_latency = false);

// The process-wide sweep scheduler every figure submits through. Aborts if
// ConfigureSweep has not run.
sweep::SweepScheduler& SharedSweep();

// Creates the shared scheduler with `threads` workers, persistent result
// store `cache_dir` and observability output directory `obs_dir` (either
// empty disables it). Call before the first submission (bench_all does);
// any scheduler already created is torn down, invalidating outstanding job
// indices.
void ConfigureSweep(int threads, const std::string& cache_dir, const std::string& obs_dir);

// Submits one job against a named workload (no trace generation happens at
// submit time; workers resolve the name through GetTrace). Returns the job
// index to pass to Result/Metrics.
size_t Submit(const std::string& trace_name, const EngineConfig& config,
              sweep::JobEngine engine = sweep::JobEngine::kReplay);

// Submits one job against an ad-hoc trace (keyed by content hash). Pass by
// value: move in a temporary, or copy a retained trace.
size_t Submit(Trace trace, const EngineConfig& config,
              sweep::JobEngine engine = sweep::JobEngine::kReplay);

// Convenience: named workload under the default config.
size_t Submit(const std::string& trace_name, Approach a, DeploymentScenario scenario,
              bool measure_latency = false);

// Oracular submissions (collect with Result; the approach prints as
// "oracular").
size_t SubmitOracle(const std::string& trace_name, DeploymentScenario scenario,
                    bool measure_latency = false);
size_t SubmitOracle(Trace trace, DeploymentScenario scenario,
                    bool measure_latency = false);

// Dollar-exact offline optimum submissions (collect with Result; the
// approach prints as "exact-oracle"). Memoizes through the sweep like any
// other engine. Figures that need the oracle-only extras — the per-window
// cost timeline for regret annotation, the crossover verdict, the DP total
// — call RunExact below instead.
size_t SubmitExactOracle(const std::string& trace_name, DeploymentScenario scenario,
                         bool measure_latency = false);
size_t SubmitExactOracle(Trace trace, DeploymentScenario scenario,
                         bool measure_latency = false);

// Runs the exact offline optimum synchronously under `config` (window
// cadence, prices, price shocks, seed all honored). Not sweep-memoized:
// results carry the full timeline, which RunResult cannot hold.
ExactOracleResult RunExact(const Trace& t, const EngineConfig& config);

// Materializes a streamed synthetic profile into an in-memory Trace (same
// request sequence the engines replay chunk by chunk). Oracle scoring needs
// the whole trace; scenario figures materialize once and submit the engines
// against the same content-hashed trace so every comparator sees identical
// requests.
Trace MaterializeStream(const StreamProfile& profile);

// Blocks until job `index` finishes and returns its result. The reference
// stays valid for the scheduler's lifetime.
const RunResult& Result(size_t index);

// Runs one approach over one trace with the default configuration
// (submit + await through the shared sweep, so results memoize).
RunResult RunApproach(const Trace& t, Approach a, DeploymentScenario scenario,
                      bool measure_latency = false);

// Prints a section header.
void PrintHeader(const std::string& title, const std::string& paper_ref);

// Formats a dollar value / a percentage.
std::string Dollars(double d);
std::string Percent(double frac);

// True when this translation unit was compiled with optimization (and with
// NDEBUG, so MACARON_CHECKs and assert()s compile to nothing). Benchmark
// numbers from a non-optimized build are meaningless against the recorded
// baselines: BENCH_micro.json / BENCH_sweep.json are Release-only.
constexpr bool OptimizedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

// Prints a loud stderr banner if this is not an optimized build. stderr so
// the warning cannot perturb the byte-compared stdout of the figure
// harnesses. `binary` names the offender in the banner.
void WarnIfUnoptimizedBuild(const char* binary);

}  // namespace bench
}  // namespace macaron

#endif  // MACARON_BENCH_HARNESS_H_
