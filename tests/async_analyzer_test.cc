// Asynchronous analyzer pipeline suite (DESIGN.md "Analyzer pipeline").
//
// The load-bearing guarantee: the pool is execution-only. With the
// analyzer's mini-sim batch replays forked on the shared engine pool and
// overlapped with shard serving and chunk decode, every output artifact —
// RunResult serialization, decision trace, metrics JSON — must be
// byte-identical to the workerless run, where every replay runs inline,
// for either engine, at any shard_threads / analyzer_threads, with
// decode-ahead on or off. These tests byte-compare all three artifacts
// across that cross product on a Zipf trace streamed at an odd chunk size
// (so analyzer batch flushes land mid-chunk and mid-window).
//
// Under -DMACARON_SANITIZE=thread (`ctest -L tsan`) this is the primary
// race surface for the async pipeline: controller observation on the
// ingest thread, shard replay workers, the decode-ahead worker, and the
// banks' in-flight batch replays all run concurrently here. Under
// -DMACARON_SANITIZE=address (`ctest -L asan`) it guards the feed's double
// buffer: a forked replay reads one batch while ingest refills the other.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/decision_trace.h"
#include "src/obs/metrics.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/sim/report_io.h"
#include "src/trace/request_source.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

// Odd and small: forces chunk boundaries mid-window and keeps the sampled
// stream crossing the banks' 4096-request batch capacity repeatedly.
constexpr size_t kSmallChunk = 509;

EngineConfig Config(Approach a) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  cfg.num_minicaches = 12;
  return cfg;
}

// ~30k requests with high sampling pressure (small objects): the analyzer
// observes every row and its banks flush many batches per window.
Trace ZipfTrace() {
  WorkloadProfile p;
  p.name = "async-analyzer-zipf";
  p.seed = 83;
  p.duration = 2 * kDay;
  p.dataset_bytes = 60ull * 1000 * 1000;
  p.mean_object_bytes = 16ull * 1000;
  p.get_bytes = 400ull * 1000 * 1000;
  p.put_bytes = 40ull * 1000 * 1000;
  p.delete_fraction = 0.05;
  p.zipf_alpha = 0.9;
  return SplitObjects(GenerateTrace(p), p.max_object_bytes);
}

// Every observable artifact of a run, byte-exact.
struct Artifacts {
  std::string result;
  std::string decisions;
  std::string metrics;
};

void ExpectSame(const Artifacts& got, const Artifacts& want, const std::string& label) {
  EXPECT_EQ(got.result, want.result) << label << ": RunResult drifted";
  EXPECT_EQ(got.decisions, want.decisions) << label << ": decision trace drifted";
  EXPECT_EQ(got.metrics, want.metrics) << label << ": metrics drifted";
}

template <typename Engine>
Artifacts RunVariant(EngineConfig cfg, const Trace& t, int shard_threads, int analyzer_threads,
                     bool decode_ahead) {
  cfg.num_shards = 8;
  cfg.shard_threads = shard_threads;
  cfg.analyzer_threads = analyzer_threads;
  cfg.stream_decode_ahead = decode_ahead;
  obs::DecisionTrace decisions;
  obs::MetricsRegistry metrics;
  cfg.decision_trace = &decisions;
  cfg.metrics = &metrics;
  TraceSource source(t, kSmallChunk);
  const RunResult r = Engine(cfg).Run(source);
  return {SerializeRunResult(r), DecisionTraceJsonl(decisions), metrics.Json()};
}

// The analyzer_threads x shard_threads x decode-ahead cross-check for one
// engine and approach, anchored to the workerless run (shard_threads and
// analyzer_threads 1: every batch replay runs inline).
template <typename Engine>
void ExpectPoolInvariant(const EngineConfig& cfg, const Trace& t, const char* label) {
  const Artifacts want = RunVariant<Engine>(cfg, t, /*shard_threads=*/1,
                                            /*analyzer_threads=*/1, /*decode_ahead=*/false);
  for (int analyzer_threads : {1, 4}) {
    for (int shard_threads : {1, 8}) {
      for (bool decode_ahead : {false, true}) {
        const Artifacts got =
            RunVariant<Engine>(cfg, t, shard_threads, analyzer_threads, decode_ahead);
        ExpectSame(got, want,
                   std::string(label) + " analyzer_threads=" + std::to_string(analyzer_threads) +
                       " shard_threads=" + std::to_string(shard_threads) +
                       " decode_ahead=" + (decode_ahead ? "on" : "off"));
      }
    }
  }
}

TEST(AsyncAnalyzerReplayEngineTest, PoolNeverChangesAnyOutputBit) {
  const Trace t = ZipfTrace();
  for (Approach a : {Approach::kMacaron, Approach::kMacaronTtl}) {
    ExpectPoolInvariant<ReplayEngine>(Config(a), t, ApproachName(a));
  }
}

TEST(AsyncAnalyzerEventEngineTest, PoolNeverChangesAnyOutputBit) {
  const Trace t = ZipfTrace();
  for (Approach a : {Approach::kMacaron, Approach::kMacaronTtl}) {
    ExpectPoolInvariant<EventEngine>(Config(a), t, ApproachName(a));
  }
}

}  // namespace
}  // namespace macaron
