#include "replaybench/src/workloads.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "bench/harness.h"
#include "src/common/hash.h"
#include "src/common/thread_pool.h"
#include "src/pricing/cost_meter.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/sim/report_io.h"
#include "src/sweep/fingerprint.h"
#include "src/trace/splitter.h"

namespace replaybench {

using macaron::Approach;
using macaron::CostCategory;
using macaron::kDay;
using macaron::kHour;
using macaron::SyntheticStreamSource;
namespace sweep = macaron::sweep;

namespace {

// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
// Timed repetitions per run: at least kMinReps, then more while another
// repetition of the mean length so far still fits in the measurement
// budget (--seconds), never more than kMaxReps.
constexpr int kMinReps = 2;
constexpr int kMaxReps = 50;

bool KeepMeasuring(int rep, Clock::time_point start, double seconds) {
  if (rep < kMinReps) {
    return true;
  }
  const double elapsed = SecondsSince(start);
  return elapsed + elapsed / rep <= seconds;
}

double DataCostUsd(const RunResult& r) {
  return r.costs.Get(CostCategory::kEgress) + r.costs.Get(CostCategory::kCapacity) +
         r.costs.Get(CostCategory::kOperation);
}

// What one repetition reports: the throughput samples it measured, in
// requests per wall second and per CPU second at the multi-thread (mt) and
// single-thread (1t) settings (0 = not measured by this repetition); its
// peak RSS when run in a child; the FNV-1a of its serialized results
// (compared across repetitions and thread counts); its digest line; and the
// problems its correctness checks found.
struct Repetition {
  bool ok = false;
  std::string error;
  double wall_mt = 0.0;
  double wall_1t = 0.0;
  double cpu_mt = 0.0;
  double cpu_1t = 0.0;
  double rss_mib = 0.0;
  uint64_t results_fnv = 0;
  std::string digest;
  std::vector<std::string> problems;
};

// One line of the child's report: newlines would split it.
std::string OneLine(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  return s;
}

// Runs `body` in a forked child and returns its report, with the child's
// peak RSS: that of the one run plus the set-up it inherited. Call it only
// while this process owns no threads.
//
// The report travels over a pipe as text lines: "ok rss fnv", then the
// error, the digest, and one line per problem.
template <typename Body>
Repetition RunIsolated(Body body) {
  Repetition rep;
  int fds[2];
  if (pipe(fds) != 0) {
    rep.error = "pipe failed";
    return rep;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    rep.error = "fork failed";
    return rep;
  }
  if (pid == 0) {
    close(fds[0]);
    Repetition child;
    try {
      body(&child);
      child.ok = true;
    } catch (const std::exception& e) {
      child.error = e.what();
    }
    char head[160];
    std::snprintf(head, sizeof(head), "%d %.17g %" PRIu64 "\n", child.ok ? 1 : 0, PeakRssMib(),
                  child.results_fnv);
    std::string msg = head + OneLine(child.error) + "\n" + OneLine(child.digest) + "\n";
    for (const std::string& p : child.problems) {
      msg += OneLine(p) + "\n";
    }
    size_t off = 0;
    while (off < msg.size()) {
      const ssize_t w = write(fds[1], msg.data() + off, msg.size() - off);
      if (w <= 0) {
        _exit(1);
      }
      off += static_cast<size_t>(w);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string msg;
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = read(fds[0], buf, sizeof(buf));
    if (r <= 0) {
      break;
    }
    msg.append(buf, static_cast<size_t>(r));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    rep.error = "child exited abnormally (status " + std::to_string(status) + ")";
    return rep;
  }
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t nl = msg.find('\n'); nl != std::string::npos; nl = msg.find('\n', start)) {
    lines.push_back(msg.substr(start, nl - start));
    start = nl + 1;
  }
  int ok = 0;
  if (lines.size() < 3 ||
      std::sscanf(lines[0].c_str(), "%d %lf %" SCNu64, &ok, &rep.rss_mib, &rep.results_fnv) !=
          3) {
    rep.error = "truncated child report";
    return rep;
  }
  rep.ok = ok == 1;
  rep.error = lines[1];
  rep.digest = lines[2];
  rep.problems.assign(lines.begin() + 3, lines.end());
  return rep;
}

uint64_t HashAll(const std::vector<std::string>& blobs) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& b : blobs) {
    h = Fnv1a64(b, h);
  }
  return h;
}

std::string JoinSamples(const std::vector<double>& v) {
  std::string s;
  for (const double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", s.empty() ? "" : " ", x);
    s += buf;
  }
  return s;
}

Metric E2e(const std::string& name, double value, const std::string& unit) {
  return Metric{name, value, unit, ""};
}

// Adds one checked repetition to `out`: its own problems, plus a mismatch
// if its results differ from the first repetition's. Returns false if the
// repetition did not complete.
bool Record(const Repetition& c, const std::string& what, uint64_t* reference,
            std::string* digest, Outcome* out) {
  std::vector<std::string> problems = c.problems;
  if (!c.ok) {
    problems.push_back(what + ": run failed: " + c.error);
  } else if (digest->empty()) {
    *reference = c.results_fnv;
    *digest = c.digest;
  } else if (c.results_fnv != *reference) {
    problems.push_back(what + ": serialized results differ from the first run");
  }
  out->checks.Run(problems);
  return c.ok;
}

void AddSampleNotes(const std::vector<std::pair<const char*, const std::vector<double>*>>& samples,
                    Outcome* out) {
  for (const auto& [name, values] : samples) {
    out->notes.push_back(std::string("samples ") + name + " " + JoinSamples(*values));
  }
}

// The timed run of either workload shape. `setup` builds the inputs and is
// timed kSetupReps times; `repeat(threads, report)` runs one checked
// repetition at a thread setting and fills in the rate sample(s) it
// measured; `settings` lists the settings of one round, in order (ABBA for
// the streamed workloads). Peak RSS is the median over `rss_reps` extra
// repetitions of settings[0], each in a forked child, run before this
// process starts any thread, so no timed repetition's leftovers count; all
// timed repetitions then run in this process.
template <typename Setup, typename Repeat>
Outcome MeasureTimed(const RunContext& ctx, Setup setup, Repeat repeat,
                     const std::vector<int>& settings, int rss_reps) {
  Outcome out;
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const double cpu0 = CpuSeconds();
    const auto t0 = Clock::now();
    setup();
    setup_wall_s.push_back(SecondsSince(t0));
    setup_cpu_s.push_back(CpuSeconds() - cpu0);
  }
  uint64_t reference = 0;
  std::string digest;
  std::vector<double> rss;
  for (int i = 0; i < rss_reps; ++i) {
    const Repetition isolated = RunIsolated([&](Repetition* r) { repeat(settings[0], r); });
    if (Record(isolated, "isolated run", &reference, &digest, &out)) {
      rss.push_back(isolated.rss_mib);
    }
  }

  std::vector<double> wall_mt, wall_1t, cpu_mt, cpu_1t;
  const auto start = Clock::now();
  for (int rep = 0; rep < kMaxReps && KeepMeasuring(rep, start, ctx.seconds); ++rep) {
    for (const int threads : settings) {
      Repetition c;
      try {
        repeat(threads, &c);
        c.ok = true;
      } catch (const std::exception& e) {
        c.error = e.what();
      }
      if (Record(c, "threads=" + std::to_string(threads), &reference, &digest, &out)) {
        for (auto [sample, samples] :
             {std::pair{c.wall_mt, &wall_mt}, std::pair{c.wall_1t, &wall_1t},
              std::pair{c.cpu_mt, &cpu_mt}, std::pair{c.cpu_1t, &cpu_1t}}) {
          if (sample > 0) {
            samples->push_back(sample);
          }
        }
      }
    }
  }

  out.metrics.push_back(E2e("req_per_cpu_s", Median(cpu_mt), "1/cpu_s"));
  out.metrics.push_back(E2e("req_per_cpu_s_1t", Median(cpu_1t), "1/cpu_s"));
  out.metrics.push_back(E2e("setup_s", Median(setup_cpu_s), "s"));
  out.metrics.push_back(E2e("peak_rss_mib", Median(rss), "MiB"));
  // The wall-clock figures; printed, not gated (see README.md).
  char buf[160];
  for (const auto& [name, samples] : {std::pair{"req_per_s", &wall_mt},
                                      std::pair{"req_per_s_1t", &wall_1t}}) {
    std::snprintf(buf, sizeof(buf), "wall   %-32s %16.6g 1/s", name, Median(*samples));
    out.notes.push_back(buf);
  }
  std::snprintf(buf, sizeof(buf), "wall   %-32s %16.6g s", "setup_s", Median(setup_wall_s));
  out.notes.push_back(buf);
  AddSampleNotes({{"req_per_s", &wall_mt},
                  {"req_per_s_1t", &wall_1t},
                  {"req_per_cpu_s", &cpu_mt},
                  {"req_per_cpu_s_1t", &cpu_1t},
                  {"setup_wall_s", &setup_wall_s},
                  {"setup_cpu_s", &setup_cpu_s},
                  {"peak_rss_mib", &rss}},
                 &out);
  out.notes.push_back("digest " + digest);
  return out;
}

Outcome RunStreamTimed(WorkloadKind kind, const RunContext& ctx) {
  const StreamWorkload w = MakeStreamWorkload(kind, ctx.seed);
  // Set-up: source construction, which runs the exact-statistics pre-pass.
  std::unique_ptr<SyntheticStreamSource> source;
  auto setup = [&] { source = std::make_unique<SyntheticStreamSource>(w.profile); };
  auto repeat = [&](int threads, Repetition* r) {
    const double cpu0 = CpuSeconds();
    const auto t0 = Clock::now();
    const RunResult result = RunStream(w, *source, threads, /*decode_ahead=*/true);
    const double n = static_cast<double>(source->Info().num_requests);
    (threads == 1 ? r->wall_1t : r->wall_mt) = n / SecondsSince(t0);
    (threads == 1 ? r->cpu_1t : r->cpu_mt) = n / (CpuSeconds() - cpu0);
    const std::string bytes = macaron::SerializeRunResult(result);
    r->results_fnv = HashAll({bytes});
    r->digest = Digest({&result}, {bytes});
    CheckConservation(result, source->Info().stats.num_gets,
                      "shard_threads=" + std::to_string(threads), &r->problems);
  };
  const int mt = ctx.threads.shard_threads_mt;
  // One isolated run: a single engine run's peak repeats to within a few
  // percent.
  Outcome out = MeasureTimed(ctx, setup, repeat, {mt, 1, 1, mt}, /*rss_reps=*/1);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "requests=%" PRIu64 " windows=%" PRId64,
                source->Info().num_requests,
                static_cast<int64_t>(w.profile.duration / w.config.window));
  out.notes.insert(out.notes.begin(), buf);
  return out;
}

Outcome RunSweepTimed(const RunContext& ctx) {
  TraceSet set;
  auto setup = [&] { set = MakeHeadlineTraces(ctx.seed); };
  // One repetition: a cold pass into an empty store, then a warm pass over
  // it. Every rate comes from the cold pass. In wall time: over the pass's
  // wall time, and over its summed job seconds (each job runs at one shard
  // thread).
  auto repeat = [&](int threads, Repetition* r) {
    const std::vector<sweep::SweepJobSpec> jobs = SweepJobs(set, ctx.seed);
    const uint64_t requests_per_pass = set.total_requests() * kJobsPerTrace;
    std::vector<uint64_t> expected_gets;
    for (const auto& t : set.traces) {
      expected_gets.push_back(macaron::ComputeStats(*t).num_gets);
    }
    const std::string dir = FreshDir(ctx, "sweep");
    const double cpu0 = CpuSeconds();
    SweepPass cold = RunSweep(jobs, threads, dir);
    const double cpu = CpuSeconds() - cpu0;
    const SweepPass warm = RunSweep(jobs, threads, dir);
    std::filesystem::remove_all(dir);
    const double n = static_cast<double>(requests_per_pass);
    r->wall_mt = n / cold.wall_seconds;
    r->wall_1t = n / cold.stats.busy_seconds;
    // Every job is single-threaded, so the pass's CPU seconds are the jobs'
    // serial CPU seconds: one CPU rate serves both settings.
    r->cpu_mt = r->cpu_1t = n / cpu;
    r->results_fnv = HashAll(cold.serialized);
    std::vector<const RunResult*> results;
    for (const RunResult& res : cold.results) {
      results.push_back(&res);
    }
    r->digest = Digest(results, cold.serialized);
    if (cold.stats.executed != jobs.size()) {
      r->problems.push_back("cold pass executed " + std::to_string(cold.stats.executed) + " of " +
                            std::to_string(jobs.size()) + " jobs");
    }
    if (warm.stats.store_hits != jobs.size()) {
      r->problems.push_back("warm pass loaded " + std::to_string(warm.stats.store_hits) + " of " +
                            std::to_string(jobs.size()) + " jobs from the store");
    }
    if (warm.serialized != cold.serialized) {
      r->problems.push_back("warm results differ from cold results");
    }
    for (size_t j = 0; j < jobs.size(); ++j) {
      if (!sweep::IsOracleEngine(jobs[j].engine)) {
        CheckConservation(cold.results[j], expected_gets[j / kJobsPerTrace],
                          cold.results[j].trace_name + "/" + cold.results[j].approach_name,
                          &r->problems);
      }
    }
    CheckOracleOrdering(set, cold, &r->problems);
  };
  // The peak depends on which jobs happen to run at the same time, which
  // varies from pass to pass (by up to 10% for one seed); the median of
  // three isolated passes holds it steadier.
  Outcome out = MeasureTimed(ctx, setup, repeat, {ctx.threads.sweep_threads}, /*rss_reps=*/3);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "traces=%zu jobs=%zu requests_per_pass=%" PRIu64,
                set.traces.size(), set.traces.size() * kJobsPerTrace,
                set.total_requests() * kJobsPerTrace);
  out.notes.insert(out.notes.begin(), buf);
  return out;
}

}  // namespace

EngineConfig SweepConfig(Approach a, uint64_t seed) {
  EngineConfig cfg = macaron::bench::DefaultConfig(a, macaron::DeploymentScenario::kCrossCloud);
  cfg.seed = seed;
  // The traces are in memory already; a decode-ahead worker per job would
  // only oversubscribe the nproc job threads.
  cfg.stream_decode_ahead = false;
  return cfg;
}

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  for (const WorkloadKind k :
       {WorkloadKind::kServeDense, WorkloadKind::kWindowChurn, WorkloadKind::kSweepCold}) {
    if (name == WorkloadName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kServeDense:
      return "serve_dense";
    case WorkloadKind::kWindowChurn:
      return "window_churn";
    case WorkloadKind::kSweepCold:
      return "sweep_cold";
  }
  return "?";
}

Threads Threads::Detect() {
  Threads t;
  t.nproc = macaron::ThreadPool::HardwareConcurrency();
  // At least 2, so the multi-thread setting differs from the single-thread
  // one even on a host with fewer than 4 cores.
  t.shard_threads_mt = std::max(2, t.nproc - 2);
  t.sweep_threads = t.nproc;
  return t;
}

StreamWorkload MakeStreamWorkload(WorkloadKind kind, uint64_t seed) {
  StreamWorkload w;
  StreamProfile& p = w.profile;
  EngineConfig& cfg = w.config;
  p.seed = seed;
  p.population = 1ull << 17;
  p.mean_object_bytes = 1ull << 20;
  cfg.seed = seed;
  cfg.num_shards = 4;
  cfg.measure_latency = true;
  if (kind == WorkloadKind::kServeDense) {
    // 192 fifteen-minute windows of ~10^4 requests each.
    p.name = "serve_dense";
    p.num_requests = 2'000'000;
    p.duration = 2 * kDay;
    p.zipf_alpha = 0.9;
    p.put_fraction = 0.1;
    p.delete_fraction = 0.0;
    cfg.approach = Approach::kMacaron;
  } else {
    // 2,880 fifteen-minute windows of ~350 requests each.
    p.name = "window_churn";
    p.num_requests = 1'000'000;
    p.duration = 30 * kDay;
    p.put_fraction = 0.3;
    p.delete_fraction = 0.1;
    p.drift_period = 6 * kHour;
    cfg.approach = Approach::kMacaronTtl;
    w.event_engine = true;
  }
  return w;
}

RunResult RunStream(const StreamWorkload& w, RequestSource& source, int shard_threads,
                    bool decode_ahead) {
  EngineConfig cfg = w.config;
  cfg.shard_threads = shard_threads;
  cfg.stream_decode_ahead = decode_ahead;
  return w.event_engine ? macaron::EventEngine(cfg).Run(source)
                        : macaron::ReplayEngine(cfg).Run(source);
}

uint64_t TraceSet::total_requests() const {
  uint64_t n = 0;
  for (const auto& t : traces) {
    n += t->size();
  }
  return n;
}

TraceSet MakeHeadlineTraces(uint64_t seed, std::vector<double>* generate_seconds) {
  TraceSet set;
  for (const std::string& name : macaron::HeadlineProfileNames()) {
    macaron::WorkloadProfile p = macaron::ProfileByName(name);
    p.seed ^= macaron::Mix64(seed);
    const auto t0 = Clock::now();
    auto trace = std::make_shared<const Trace>(
        macaron::SplitObjects(macaron::GenerateTrace(p), p.max_object_bytes));
    if (generate_seconds != nullptr) {
      generate_seconds->push_back(SecondsSince(t0));
    }
    set.names.push_back(name);
    set.traces.push_back(std::move(trace));
    set.identities.push_back(sweep::FingerprintWorkloadProfile(p));
  }
  return set;
}

std::vector<sweep::SweepJobSpec> SweepJobs(const TraceSet& set, uint64_t seed) {
  std::vector<sweep::SweepJobSpec> jobs;
  for (size_t i = 0; i < set.traces.size(); ++i) {
    auto add = [&](EngineConfig cfg, sweep::JobEngine engine) {
      sweep::SweepJobSpec spec;
      spec.trace_name = set.names[i];
      spec.trace = set.traces[i];
      spec.trace_identity = set.identities[i];
      spec.config = std::move(cfg);
      spec.engine = engine;
      jobs.push_back(std::move(spec));
    };
    for (const Approach a : {Approach::kRemote, Approach::kReplicated, Approach::kEcpc,
                             Approach::kMacaron, Approach::kMacaronTtl}) {
      add(SweepConfig(a, seed), sweep::JobEngine::kReplay);
    }
    for (const Approach a : {Approach::kMacaron, Approach::kMacaronTtl}) {
      add(SweepConfig(a, seed), sweep::JobEngine::kEvent);
    }
    add(SweepConfig(Approach::kRemote, seed), sweep::JobEngine::kOracle);
    EngineConfig opfree = SweepConfig(Approach::kRemote, seed);
    opfree.prices.get_per_request = 0.0;
    opfree.prices.put_per_request = 0.0;
    add(opfree, sweep::JobEngine::kExactOracle);
  }
  return jobs;
}

SweepPass RunSweep(const std::vector<sweep::SweepJobSpec>& jobs, int threads,
                   const std::string& store_dir) {
  SweepPass pass;
  sweep::SweepScheduler::Options opt;
  opt.threads = threads;
  opt.store_dir = store_dir;
  sweep::SweepScheduler scheduler(opt);
  const auto t0 = Clock::now();
  for (const sweep::SweepJobSpec& spec : jobs) {
    scheduler.Submit(spec);
  }
  scheduler.WaitAll();
  pass.wall_seconds = SecondsSince(t0);
  pass.stats = scheduler.stats();
  for (size_t j = 0; j < jobs.size(); ++j) {
    pass.results.push_back(scheduler.Result(j));
    pass.job_seconds.push_back(scheduler.Metrics(j).wall_seconds);
    pass.serialized.push_back(macaron::SerializeRunResult(pass.results.back()));
    pass.requests += jobs[j].trace->size();
  }
  return pass;
}

std::string FreshDir(const RunContext& ctx, const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ctx.scratch_dir + "/" + tag + "-" + std::to_string(getpid()) + "-" +
                          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void CheckLog::Run(const std::vector<std::string>& problems) {
  ++attempted;
  if (!problems.empty()) {
    ++failed;
    failures.insert(failures.end(), problems.begin(), problems.end());
  }
}

void CheckConservation(const RunResult& r, uint64_t expected_gets, const std::string& what,
                       std::vector<std::string>* problems) {
  const uint64_t served = r.cluster_hits + r.osc_hits + r.delayed_hits + r.remote_fetches;
  if (served != r.gets) {
    problems->push_back(what + ": cluster+osc+delayed+remote = " + std::to_string(served) +
                        " != gets " + std::to_string(r.gets));
  }
  if (r.gets != expected_gets) {
    problems->push_back(what + ": gets " + std::to_string(r.gets) + " != source GETs " +
                        std::to_string(expected_gets));
  }
}

void CheckOracleOrdering(const TraceSet& set, const SweepPass& pass,
                         std::vector<std::string>* problems) {
  // Job layout per trace (SweepJobs): 0-4 replay, 5-6 event, 7 Oracular,
  // 8 exact. Macaron-family engine jobs: replay Macaron / Macaron-TTL and
  // event Macaron / Macaron-TTL.
  constexpr size_t kMacaronJobs[] = {3, 4, 5, 6};
  auto leq = [](double a, double b) { return a <= b + 1e-9 * std::max(1.0, std::abs(b)); };
  for (size_t i = 0; i < set.traces.size(); ++i) {
    const size_t base = i * kJobsPerTrace;
    const double oracular = pass.results[base + 7].costs.Total();
    const double exact = pass.results[base + 8].costs.Total();
    char buf[256];
    if (!leq(exact, oracular)) {
      std::snprintf(buf, sizeof(buf), "%s: exact %.6f > Oracular %.6f", set.names[i].c_str(),
                    exact, oracular);
      problems->push_back(buf);
    }
    for (const size_t j : kMacaronJobs) {
      const RunResult& r = pass.results[base + j];
      if (!leq(oracular, DataCostUsd(r))) {
        std::snprintf(buf, sizeof(buf), "%s: Oracular %.6f > %s data cost %.6f (job %zu)",
                      set.names[i].c_str(), oracular, r.approach_name.c_str(), DataCostUsd(r), j);
        problems->push_back(buf);
      }
    }
  }
}

std::string Digest(const std::vector<const RunResult*>& results,
                   const std::vector<std::string>& serialized) {
  uint64_t gets = 0, cluster = 0, osc = 0, delayed = 0, remote = 0, egress = 0;
  int64_t reconfigs = 0;
  double cost = 0.0;
  for (const RunResult* r : results) {
    gets += r->gets;
    cluster += r->cluster_hits;
    osc += r->osc_hits;
    delayed += r->delayed_hits;
    remote += r->remote_fetches;
    egress += r->egress_bytes;
    reconfigs += r->reconfigs;
    cost += r->costs.Total();
  }
  uint64_t h = 1469598103934665603ull;
  for (const std::string& s : serialized) {
    h = Fnv1a64(s, h);
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "gets=%" PRIu64 " cluster_hits=%" PRIu64 " osc_hits=%" PRIu64
                " delayed_hits=%" PRIu64 " remote_fetches=%" PRIu64 " egress_bytes=%" PRIu64
                " reconfigs=%" PRId64 " total_cost_usd=%.6f results_fnv=%016" PRIx64,
                gets, cluster, osc, delayed, remote, egress, reconfigs, cost, h);
  return buf;
}

Outcome RunTimed(WorkloadKind kind, const RunContext& ctx) {
  return kind == WorkloadKind::kSweepCold ? RunSweepTimed(ctx) : RunStreamTimed(kind, ctx);
}

}  // namespace replaybench
