// The benchmark's three workloads, their timed (untraced) runs, and the
// correctness checks every timed run passes through.
//
//  * serve_dense  — ReplayEngine, Macaron (OSC + ALC-sized DRAM cluster),
//                   streamed Zipf-0.9 source over 2 days: per-request
//                   serving dominates.
//  * window_churn — EventEngine, Macaron-TTL, streamed write/delete-heavy
//                   source with popularity drift over 30 days: per-window
//                   boundary work dominates.
//  * sweep_cold   — SweepScheduler over the 8 headline traces x 9 jobs
//                   into an empty result store, then a warm pass.
//
// Every input is a pure function of the seed the benchmark is given; the
// simulator only ever sees the generated requests.

#ifndef REPLAYBENCH_SRC_WORKLOADS_H_
#define REPLAYBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "replaybench/src/util.h"
#include "src/sim/engine_config.h"
#include "src/sim/run_result.h"
#include "src/sweep/scheduler.h"
#include "src/trace/request_source.h"
#include "src/trace/stream_source.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace.h"

namespace replaybench {

using macaron::EngineConfig;
using macaron::RequestSource;
using macaron::RunResult;
using macaron::StreamProfile;
using macaron::Trace;

enum class WorkloadKind { kServeDense, kWindowChurn, kSweepCold };

// Parses a workload name; false if unknown.
bool ParseWorkload(const std::string& name, WorkloadKind* out);
const char* WorkloadName(WorkloadKind kind);

// Host parallelism and the thread counts derived from it. Busy threads must
// fit in nproc: a streamed engine run keeps the calling thread (partition +
// controller observe), the shard workers and the decode-ahead worker busy,
// so the multi-thread setting uses nproc - 2 shard workers (at least 2).
// The sweep runs nproc jobs at once, each single-threaded (decode-ahead
// off, since its traces are already in memory).
struct Threads {
  int nproc = 1;
  int shard_threads_mt = 1;
  int sweep_threads = 1;
  static Threads Detect();
};

// Everything a run needs besides the workload.
struct RunContext {
  uint64_t seed = 1;
  double seconds = 10.0;
  Threads threads;
  std::string scratch_dir;  // temp space for result stores (inside the checkout)
};

// --- Streamed engine workloads (serve_dense, window_churn) ---

struct StreamWorkload {
  StreamProfile profile;
  EngineConfig config;  // shard_threads / decode-ahead set per run
  bool event_engine = false;
};

StreamWorkload MakeStreamWorkload(WorkloadKind kind, uint64_t seed);

// One engine run of `w` over `source` at `shard_threads`.
RunResult RunStream(const StreamWorkload& w, RequestSource& source, int shard_threads,
                    bool decode_ahead);

// --- Sweep workload (sweep_cold) ---

// The sweep's inputs: one materialized trace per profile plus the identity
// the result store keys it by.
struct TraceSet {
  std::vector<std::string> names;
  std::vector<std::shared_ptr<const Trace>> traces;
  std::vector<macaron::sweep::Fingerprint> identities;
  uint64_t total_requests() const;
};

// The 8 headline profiles, re-seeded from `seed`, generated and split as the
// figure harness does. `generate_seconds` (optional) receives the
// per-trace generation times.
TraceSet MakeHeadlineTraces(uint64_t seed, std::vector<double>* generate_seconds = nullptr);

// The figure harness's default engine configuration (bench::DefaultConfig:
// cross-cloud, no latency sampling) with the benchmark seed as the engine
// seed and decode-ahead off.
EngineConfig SweepConfig(macaron::Approach a, uint64_t seed);

// The 9 jobs run per trace: replay Remote / Replicated / ECPC / Macaron /
// Macaron-TTL, event Macaron / Macaron-TTL, Oracular, and the exact oracle
// (under the op-free book, which makes it a lower bound on the others).
constexpr int kJobsPerTrace = 9;
std::vector<macaron::sweep::SweepJobSpec> SweepJobs(const TraceSet& set, uint64_t seed);

struct SweepPass {
  double wall_seconds = 0.0;
  uint64_t requests = 0;  // sum of job trace lengths
  macaron::sweep::SweepStats stats;
  std::vector<double> job_seconds;       // per job, submission order
  std::vector<std::string> serialized;   // per job, report_io bytes
  std::vector<RunResult> results;
};

// Runs every job through a fresh scheduler with `threads` workers and a
// result store at `store_dir` (created if missing).
SweepPass RunSweep(const std::vector<macaron::sweep::SweepJobSpec>& jobs, int threads,
                   const std::string& store_dir);

// A unique, not-yet-existing directory under the context's scratch dir.
std::string FreshDir(const RunContext& ctx, const std::string& tag);

// --- Correctness checks ---

// Counts checked runs and failures, and keeps the failure messages.
struct CheckLog {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  // Records one run: it fails if any of its checks failed.
  void Run(const std::vector<std::string>& problems);
};

// GET conservation: every GET is exactly one of cluster hit, OSC hit,
// delayed hit, or remote fetch, and the engine saw every GET the source
// announced. Appends a message per violation.
void CheckConservation(const RunResult& r, uint64_t expected_gets, const std::string& what,
                       std::vector<std::string>* problems);

// exact <= Oracular <= every Macaron-family engine job's data cost, per
// trace. Appends a message per violation.
void CheckOracleOrdering(const TraceSet& set, const SweepPass& pass,
                         std::vector<std::string>* problems);

// --- Simulated-statistics digest ---

// One line of simulated outputs (host timings excluded): GETs, hits per
// level, egress bytes, reconfigs, total cost, and the FNV-1a of the
// serialized results. Identical across thread counts by construction.
std::string Digest(const std::vector<const RunResult*>& results,
                   const std::vector<std::string>& serialized);

// --- Timed run (--trace 0) ---

// What a run prints: its metrics, its checked runs, and notes (run details,
// samples, digest).
struct Outcome {
  std::vector<Metric> metrics;
  CheckLog checks;
  std::vector<std::string> notes;
};

Outcome RunTimed(WorkloadKind kind, const RunContext& ctx);

}  // namespace replaybench

#endif  // REPLAYBENCH_SRC_WORKLOADS_H_
