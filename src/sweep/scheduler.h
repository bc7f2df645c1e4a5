// Sweep scheduler: concurrent execution of independent simulation jobs with
// deterministic results.
//
// The figure suite is an embarrassingly parallel outer loop — (trace,
// EngineConfig) pairs that share no mutable state — so the scheduler fans
// unique jobs across the shared ThreadPool and callers collect results *by
// submission index*, never by completion order. Printed figure rows are
// therefore bit-identical to a serial run at any thread count (including
// threads <= 1, which degenerates to running each job inline at Submit).
//
// Two memoization layers sit in front of the engines:
//  * in-process dedup: submitting a job whose fingerprint matches an
//    earlier submission (same binary, or two figures sharing a row) shares
//    the same execution — the duplicate does zero simulation work;
//  * the persistent ResultStore: a fingerprint already computed by a
//    previous process is loaded from disk instead of simulated.
//
// Per-job wall-clock and throughput metrics plus scheduler-wide stats
// (peak jobs in flight, store hits, busy seconds) feed BENCH_sweep.json.

#ifndef MACARON_SRC_SWEEP_SCHEDULER_H_
#define MACARON_SRC_SWEEP_SCHEDULER_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/oracle/exact_oracle.h"
#include "src/sim/engine_config.h"
#include "src/sim/run_result.h"
#include "src/sweep/fingerprint.h"
#include "src/sweep/result_store.h"
#include "src/trace/stream_source.h"
#include "src/trace/trace.h"

namespace macaron {
namespace sweep {

// Which simulator executes the job. Part of the job fingerprint.
enum class JobEngine : int {
  kReplay = 0,       // ReplayEngine (the paper's simulator; the default)
  kEvent = 1,        // EventEngine (prototype-fidelity, Table 3 validation)
  kOracle = 2,       // Oracular, the §5.4 keep rule (src/oracle/oracular.h)
  kExactOracle = 3,  // dollar-exact offline optimum (src/oracle/exact_oracle.h)
};

// Oracle-family engines need the whole trace materialized and have no
// controller/observability to attach.
inline bool IsOracleEngine(JobEngine e) { return static_cast<int>(e) >= 2; }

struct SweepJobSpec {
  // The trace, in exactly one of four forms:
  //  * an explicit in-memory trace (`trace`; must stay alive until the job
  //    completes — pass ownership via the shared_ptr if in doubt);
  //  * a name the scheduler resolves through the trace provider on a worker
  //    (named resolution lets trace generation itself run concurrently);
  //  * a columnar (MCTC) file path, streamed chunk by chunk — the trace is
  //    never materialized, so file-backed jobs run in O(chunk) memory;
  //  * a streamed synthetic profile (stream_source.h), likewise
  //    never materialized.
  std::string trace_name;
  std::shared_ptr<const Trace> trace;
  std::string trace_path;
  std::optional<StreamProfile> stream;

  // Identity of the trace for the result-store key. Zero means "derive":
  // content hash of `trace` when set, chunk-directory hash for
  // `trace_path`, profile hash for `stream` (named-only jobs must supply
  // one, since hashing would force generation at submit time).
  Fingerprint trace_identity;

  EngineConfig config;
  JobEngine engine = JobEngine::kReplay;
};

struct SweepJobMetrics {
  bool cache_hit = false;      // served from the persistent store
  bool deduplicated = false;   // shared an earlier in-process submission
  double wall_seconds = 0.0;   // execution (or store-load) time
  uint64_t requests = 0;       // trace length (0 when served from the store)
  double requests_per_second = 0.0;
};

struct SweepStats {
  size_t submitted = 0;    // Submit calls
  size_t unique = 0;       // distinct fingerprints
  size_t executed = 0;     // jobs that actually ran a simulator
  size_t store_hits = 0;   // jobs served from the persistent store
  int peak_in_flight = 0;  // max jobs running concurrently
  double busy_seconds = 0.0;  // summed per-job wall time (parallel work)
};

class SweepScheduler {
 public:
  struct Options {
    // <= 1 runs every job inline at Submit (the serial reference path).
    int threads = 1;
    // Persistent store directory; empty disables persistence.
    std::string store_dir;
    // Resolves trace names for jobs submitted without an explicit trace.
    // Called from worker threads; must be thread-safe. Returns shared
    // ownership, so a provider may drop a trace from its own cache while a
    // job still replays it (the bench harness's memo never drops any).
    std::function<std::shared_ptr<const Trace>(const std::string&)> trace_provider;
    // Observability output directory; empty (the default) disables. When
    // set, every executed replay/event job runs with a decision trace and
    // metrics registry attached and writes <fingerprint>.trace.jsonl /
    // <fingerprint>.metrics.json there, plus a line in index.tsv. The obs
    // sinks are NOT part of the job fingerprint: results loaded from a warm
    // store are bit-identical but produce no trace (nothing ran).
    std::string obs_dir;
  };

  explicit SweepScheduler(Options options);
  // Blocks until every submitted job has finished.
  ~SweepScheduler();

  SweepScheduler(const SweepScheduler&) = delete;
  SweepScheduler& operator=(const SweepScheduler&) = delete;

  // Enqueues one job and returns its index (== submission order). Duplicate
  // fingerprints share the earlier execution.
  size_t Submit(SweepJobSpec spec);

  // Blocks until job `index` completes; rethrows anything the job threw.
  // The reference stays valid for the scheduler's lifetime.
  const RunResult& Result(size_t index);

  // Metrics for a completed job (call after Result).
  SweepJobMetrics Metrics(size_t index);

  // Waits for all currently submitted jobs.
  void WaitAll();

  SweepStats stats() const;
  int threads() const { return options_.threads; }
  ResultStore& store() { return store_; }

 private:
  struct Execution {
    std::promise<void> done;
    std::shared_future<void> ready;
    RunResult result;
    SweepJobMetrics metrics;
  };
  struct JobRecord {
    std::shared_ptr<Execution> exec;
    bool deduplicated = false;
  };

  void Execute(const SweepJobSpec& spec, const Fingerprint& key,
               const std::shared_ptr<Execution>& exec);

  Options options_;
  ResultStore store_;

  // Serializes index.tsv appends from worker threads (obs_dir mode only).
  std::mutex obs_mu_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Execution>> by_fingerprint_;
  std::vector<JobRecord> jobs_;
  size_t executed_ = 0;
  size_t store_hits_ = 0;
  double busy_seconds_ = 0.0;

  std::atomic<int> in_flight_{0};
  std::atomic<int> peak_in_flight_{0};

  // Destroyed first: the pool drains queued tasks, which reference the
  // members above, before any of them go away.
  ThreadPool pool_;
};

// An oracle engine's result as a RunResult under `approach_name`
// ("oracular" or "exact-oracle"). Cost/counter/latency fields are
// preserved; the oracle-only extras (window timeline, crossover, dp total)
// do not fit a RunResult — callers needing them (regret annotation,
// crossover figures) run RunOracleWithConfig directly.
RunResult OracleToRunResult(const std::string& trace_name, const std::string& approach_name,
                            const ExactOracleResult& o);

// Runs oracle engine `engine` (kOracle or kExactOracle) under `config`:
// same prices, seed, and (when measure_latency is set) the same fitted
// latency generator construction as the engines. The exact oracle also
// honors the window cadence and price shocks; Oracular's §5.4 rule is
// defined on constant prices, so it runs on config.prices alone and
// SweepScheduler::Submit rejects a kOracle job that carries shocks.
ExactOracleResult RunOracleWithConfig(const Trace& trace, const EngineConfig& config,
                                      JobEngine engine);

}  // namespace sweep
}  // namespace macaron

#endif  // MACARON_SRC_SWEEP_SCHEDULER_H_
