// Unit tests for src/trace: container, statistics, I/O, splitting, sampling,
// concatenation. The statistics section also holds the flat builder's
// differential test against the map-based reference builder
// (tests/reference_trace_stats.h), the three-way agreement of every
// TraceStats source, and the TraceSource time-order check.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cache/replay_batch.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/trace/columnar_io.h"
#include "src/trace/concat.h"
#include "src/trace/request_source.h"
#include "src/trace/sampler.h"
#include "src/trace/splitter.h"
#include "src/trace/stream_source.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace.h"
#include "src/trace/trace_io.h"
#include "tests/reference_trace_stats.h"

namespace macaron {
namespace {

Trace MakeTrace() {
  Trace t;
  t.name = "test";
  t.requests = {
      {0, 1, 100, Op::kGet},    {1000, 2, 200, Op::kGet},  {2000, 1, 100, Op::kGet},
      {3000, 3, 300, Op::kPut}, {4000, 3, 300, Op::kGet},  {5000, 2, 200, Op::kDelete},
  };
  return t;
}

TEST(TraceTest, BasicProperties) {
  const Trace t = MakeTrace();
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.start_time(), 0);
  EXPECT_EQ(t.end_time(), 5000);
  EXPECT_EQ(t.duration(), 5000);
  EXPECT_TRUE(t.IsSorted());
}

TEST(TraceTest, IsSortedDetectsDisorder) {
  Trace t = MakeTrace();
  std::swap(t.requests[0], t.requests[5]);
  EXPECT_FALSE(t.IsSorted());
}

TEST(TraceStatsTest, Counters) {
  const TraceStats s = ComputeStats(MakeTrace());
  EXPECT_EQ(s.num_requests, 6u);
  EXPECT_EQ(s.num_gets, 4u);
  EXPECT_EQ(s.num_puts, 1u);
  EXPECT_EQ(s.num_deletes, 1u);
  EXPECT_EQ(s.get_bytes, 100u + 200 + 100 + 300);
  EXPECT_EQ(s.put_bytes, 300u);
  EXPECT_EQ(s.unique_objects, 3u);
  EXPECT_EQ(s.unique_bytes, 600u);
}

TEST(TraceStatsTest, CompulsoryMissRatio) {
  const TraceStats s = ComputeStats(MakeTrace());
  // First-touch GET bytes: obj1 (100) + obj2 (200); obj3 first seen via PUT.
  EXPECT_EQ(s.unique_get_bytes, 300u);
  EXPECT_DOUBLE_EQ(s.compulsory_miss_ratio, 300.0 / 700.0);
}

TEST(TraceStatsTest, EmptyTrace) {
  const TraceStats s = ComputeStats(Trace{});
  EXPECT_EQ(s.num_requests, 0u);
  EXPECT_EQ(s.compulsory_miss_ratio, 0.0);
}

TEST(TraceStatsTest, SummaryIsNonEmpty) {
  EXPECT_FALSE(ComputeStats(MakeTrace()).Summary().empty());
}

// --- Flat builder vs the map-based reference ---

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

// Every TraceStats field, doubles compared bit for bit.
void ExpectStatsBitEqual(const TraceStats& got, const TraceStats& want, const std::string& what) {
  EXPECT_EQ(got.num_requests, want.num_requests) << what;
  EXPECT_EQ(got.num_gets, want.num_gets) << what;
  EXPECT_EQ(got.num_puts, want.num_puts) << what;
  EXPECT_EQ(got.num_deletes, want.num_deletes) << what;
  EXPECT_EQ(got.get_bytes, want.get_bytes) << what;
  EXPECT_EQ(got.put_bytes, want.put_bytes) << what;
  EXPECT_EQ(got.unique_objects, want.unique_objects) << what;
  EXPECT_EQ(got.unique_bytes, want.unique_bytes) << what;
  EXPECT_EQ(got.unique_get_bytes, want.unique_get_bytes) << what;
  EXPECT_EQ(Bits(got.compulsory_miss_ratio), Bits(want.compulsory_miss_ratio)) << what;
  EXPECT_EQ(Bits(got.zipf_alpha), Bits(want.zipf_alpha)) << what;
  EXPECT_EQ(Bits(got.mean_request_rate), Bits(want.mean_request_rate)) << what;
  EXPECT_EQ(got.median_object_bytes, want.median_object_bytes) << what;
}

TraceStats ReferenceStats(const std::vector<Request>& requests) {
  ReferenceTraceStatsBuilder b;
  for (const Request& r : requests) {
    b.Add(r);
  }
  return b.Finish();
}

void ExpectMatchesReference(const Trace& t, const std::string& what) {
  ExpectStatsBitEqual(ComputeStats(t), ReferenceStats(t.requests), what);
}

// A seeded random trace. The seed picks the shape: empty (seed 0), one
// object, all deletes, or a mixed stream with PUT-only ids, resizing PUTs,
// duplicate timestamps and sizes drawn from a narrow or a wide range. Slots
// 0 and 1 map to ids 0 and ~0, the keys an empty-marker table would lose.
Trace RandomTrace(uint64_t seed) {
  Rng rng(seed);
  Trace t;
  t.name = "random";
  const size_t n = seed == 0 ? 0 : 1 + rng.NextBounded(3000);
  const uint64_t population = seed % 7 == 1 ? 1 : 1 + rng.NextBounded(800);
  const double delete_share = seed % 11 == 2 ? 1.0 : 0.3 * rng.NextDouble();
  const double put_share = rng.NextDouble() * 0.5;
  const uint64_t size_range = seed % 3 == 0 ? 16 : (1ull << 30);
  const bool hashed_ids = seed % 2 == 0;
  SimTime time = static_cast<SimTime>(rng.NextBounded(1000));
  for (size_t i = 0; i < n; ++i) {
    time += static_cast<SimTime>(rng.NextBounded(3));  // 0 => duplicate timestamps
    const uint64_t slot = rng.NextBounded(population);
    const ObjectId id = slot == 0 ? 0 : slot == 1 ? ~0ull : hashed_ids ? Mix64(slot) : slot;
    const double u = rng.NextDouble();
    Op op = u < delete_share ? Op::kDelete : u < delete_share + put_share ? Op::kPut : Op::kGet;
    if (op == Op::kGet && slot >= population / 2 && population > 1) {
      op = Op::kPut;  // the upper half of the slots are PUT-only objects
    }
    uint64_t size = 1 + Mix64(id ^ seed) % size_range;
    if (op == Op::kPut && rng.NextDouble() < 0.3) {
      size = rng.NextBounded(size_range);  // a resizing PUT (0 included)
    }
    t.requests.push_back({time, id, size, op});
  }
  return t;
}

TEST(TraceStatsBuilderTest, MatchesReferenceOnSeededRandomTraces) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    ExpectMatchesReference(RandomTrace(seed), "seed " + std::to_string(seed));
  }
}

TEST(TraceStatsBuilderTest, MatchesReferenceOnEmptyAndSingleRequestTraces) {
  ExpectMatchesReference(Trace{}, "empty");
  for (const Op op : {Op::kGet, Op::kPut, Op::kDelete}) {
    Trace t;
    t.requests = {{5, 0, 0, op}};
    ExpectMatchesReference(t, std::string("one ") + OpName(op) + " of id 0, size 0");
    t.requests = {{5, ~0ull, ~0ull, op}};
    ExpectMatchesReference(t, std::string("one ") + OpName(op) + " of id ~0, size ~0");
  }
}

// Keys whose Mix64 agree in the low 12 bits. The builder indexes its tables
// by the low bits of Mix64, so these share one probe run at every capacity
// up to 4096 cells and a few runs beyond.
std::vector<uint64_t> CollidingKeys(size_t n) {
  std::vector<uint64_t> keys = {0, ~0ull};
  const uint64_t target = Mix64(0) & 0xfff;
  for (uint64_t k = 1; keys.size() < n; ++k) {
    if ((Mix64(k) & 0xfff) == target) {
      keys.push_back(k);
    }
  }
  return keys;
}

TEST(TraceStatsBuilderTest, MatchesReferenceOnCollidingKeys) {
  const std::vector<uint64_t> keys = CollidingKeys(3000);
  Rng rng(17);
  Trace t;
  SimTime time = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (const uint64_t key : keys) {
      const double u = rng.NextDouble();
      const Op op = u < 0.1 ? Op::kDelete : u < 0.3 ? Op::kPut : Op::kGet;
      // Sizes come from the same colliding set, so the size table's probe
      // runs are as long as the id table's.
      const uint64_t size = keys[rng.NextBounded(keys.size())];
      t.requests.push_back({time++, key, size, op});
    }
  }
  ExpectMatchesReference(t, "colliding ids and sizes");
}

TEST(TraceStatsBuilderTest, MatchesReferenceAcrossEveryGrowth) {
  // N distinct ids and sizes for N just below, at, and just above each
  // power of two: every table capacity from the first page upward is
  // filled, grown, and read back.
  for (uint64_t power = 1; power <= (1u << 13); power *= 2) {
    for (const uint64_t n : {power - 1, power, power + 1}) {
      Trace t;
      for (uint64_t i = 0; i < n; ++i) {
        const Op op = i % 5 == 0 ? Op::kPut : Op::kGet;
        t.requests.push_back({static_cast<SimTime>(i), i, i + 1, op});
        if (i % 3 == 0) {
          t.requests.push_back({static_cast<SimTime>(i), i, i + 1, Op::kGet});
        }
      }
      ExpectMatchesReference(t, "n=" + std::to_string(n));
    }
  }
}

// --- Three sources of TraceStats ---
//
// ComputeStats over the materialized requests, the source's own
// Info().stats, and the MCTC footer ColumnarTraceWriter seals for the same
// request stream must agree field for field.

TraceStats FooterStats(const std::vector<Request>& requests, const std::string& name) {
  const std::string path = testing::TempDir() + "/three_way_" + name + ".mctc";
  ColumnarTraceWriter writer(path, name);
  for (const Request& r : requests) {
    writer.Add(r);
  }
  EXPECT_TRUE(writer.Finish()) << writer.error();
  std::string error;
  const auto source = ColumnarTraceSource::Open(path, &error);
  EXPECT_NE(source, nullptr) << error;
  const TraceStats stats = source != nullptr ? source->Info().stats : TraceStats{};
  std::remove(path.c_str());
  return stats;
}

TEST(TraceStatsSourcesTest, HeadlineTracesAgreeAcrossAllThreeSources) {
  for (const std::string& name : HeadlineProfileNames()) {
    const WorkloadProfile p = ProfileByName(name);
    const Trace t = SplitObjects(GenerateTrace(p), p.max_object_bytes);
    const TraceStats computed = ComputeStats(t);
    ExpectStatsBitEqual(TraceSource(t).Info().stats, computed, name + ": TraceSource");
    ExpectStatsBitEqual(FooterStats(t.requests, name), computed, name + ": MCTC footer");
  }
}

TEST(TraceStatsSourcesTest, DriftAndFlashStreamAgreesAcrossAllThreeSources) {
  StreamProfile p;
  p.name = "drift-flash";
  p.num_requests = 120000;
  p.population = 1ull << 14;
  p.zipf_alpha = 0.9;
  p.duration = 3 * kDay;
  p.mean_object_bytes = 1ull << 20;
  p.put_fraction = 0.2;
  p.delete_fraction = 0.05;
  p.drift_period = 6 * kHour;
  p.flash_at = kDay;
  p.flash_duration = 4 * kHour;
  p.flash_fraction = 0.6;
  p.seed = 11;
  SyntheticStreamSource source(p, /*chunk_records=*/4093);
  std::vector<Request> requests;
  ReplayBatch chunk;
  while (source.FillNext(&chunk)) {
    for (size_t i = 0; i < chunk.size(); ++i) {
      requests.push_back(chunk.RowAt(i));
    }
  }
  ASSERT_EQ(requests.size(), p.num_requests);
  Trace t;
  t.requests = requests;
  const TraceStats computed = ComputeStats(t);
  ExpectStatsBitEqual(source.Info().stats, computed, "stream pre-pass");
  ExpectStatsBitEqual(FooterStats(requests, p.name), computed, "MCTC footer");
  ExpectStatsBitEqual(computed, ReferenceStats(requests), "reference builder");
}

// --- TraceSource time order ---

TEST(TraceSourceTest, UnsortedTraceIsRejectedAtTheFirstBackwardStep) {
  Trace t = MakeTrace();
  t.requests[4].time = 500;  // 3000 -> 500: index 4 steps backwards
  try {
    TraceSource source(t);
    FAIL() << "an unsorted trace was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("index 4"), std::string::npos) << e.what();
  }
  EXPECT_THROW(MakeSourceInfo(t), std::invalid_argument);
  // ComputeStats stays permissive: Table 2 tools call it on any trace.
  EXPECT_EQ(ComputeStats(t).num_requests, t.size());
}

TEST(TraceSourceTest, EqualTimestampsAreAccepted) {
  Trace t = MakeTrace();
  for (Request& r : t.requests) {
    r.time = 42;
  }
  EXPECT_NO_THROW(TraceSource{t});
}

// --- I/O round trips ---

TEST(TraceIoTest, CsvRoundTrip) {
  const Trace t = MakeTrace();
  const std::string path = testing::TempDir() + "/trace_csv_test.csv";
  ASSERT_TRUE(WriteTraceCsv(t, path));
  Trace back;
  ASSERT_TRUE(ReadTraceCsv(path, &back));
  ASSERT_EQ(back.requests.size(), t.requests.size());
  for (size_t i = 0; i < t.requests.size(); ++i) {
    EXPECT_EQ(back.requests[i], t.requests[i]) << i;
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, ReadMissingFileFails) {
  Trace t;
  EXPECT_FALSE(ReadTraceCsv("/nonexistent/path.csv", &t));
}

// --- Splitting ---

TEST(SplitterTest, SmallObjectsPassThrough) {
  Trace t;
  t.requests = {{0, 5, 1000, Op::kGet}};
  const Trace out = SplitObjects(t, 4000);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.requests[0].size, 1000u);
  EXPECT_EQ(out.requests[0].id, SplitPartId(5, 0));
}

TEST(SplitterTest, LargeObjectSplitsIntoBlocks) {
  Trace t;
  t.requests = {{0, 7, 10'000'000, Op::kGet}};
  const Trace out = SplitObjects(t, 4'000'000);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.requests[0].size, 4'000'000u);
  EXPECT_EQ(out.requests[1].size, 4'000'000u);
  EXPECT_EQ(out.requests[2].size, 2'000'000u);
  uint64_t total = 0;
  for (const Request& r : out.requests) {
    total += r.size;
    EXPECT_EQ(r.time, 0);
    EXPECT_EQ(r.op, Op::kGet);
  }
  EXPECT_EQ(total, 10'000'000u);
}

TEST(SplitterTest, PartIdsAreDistinctAndStable) {
  EXPECT_NE(SplitPartId(7, 0), SplitPartId(7, 1));
  EXPECT_NE(SplitPartId(7, 0), SplitPartId(8, 0));
  EXPECT_EQ(SplitPartId(7, 2), SplitPartId(7, 2));
}

TEST(SplitterTest, ExactMultipleHasNoRemainder) {
  Trace t;
  t.requests = {{0, 1, 8'000'000, Op::kPut}};
  const Trace out = SplitObjects(t, 4'000'000);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.requests[0].size, 4'000'000u);
  EXPECT_EQ(out.requests[1].size, 4'000'000u);
}

// --- Spatial sampling ---

TEST(SamplerTest, RatioOneAdmitsAll) {
  const SpatialSampler s(1.0, 0);
  for (ObjectId id = 0; id < 1000; ++id) {
    EXPECT_TRUE(s.Admit(id));
  }
}

TEST(SamplerTest, AdmissionRateNearRatio) {
  const SpatialSampler s(0.1, 42);
  int admitted = 0;
  for (ObjectId id = 0; id < 100000; ++id) {
    if (s.Admit(id)) {
      ++admitted;
    }
  }
  EXPECT_NEAR(admitted / 100000.0, 0.1, 0.01);
}

TEST(SamplerTest, DeterministicPerObject) {
  const SpatialSampler s(0.5, 7);
  for (ObjectId id = 0; id < 100; ++id) {
    EXPECT_EQ(s.Admit(id), s.Admit(id));
  }
}

TEST(SamplerTest, DifferentSaltsDiffer) {
  const SpatialSampler a(0.5, 1);
  const SpatialSampler b(0.5, 2);
  int differ = 0;
  for (ObjectId id = 0; id < 1000; ++id) {
    if (a.Admit(id) != b.Admit(id)) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 300);
}

TEST(SamplerTest, SampleTracePreservesPerObjectSequences) {
  Trace t;
  for (int i = 0; i < 1000; ++i) {
    t.requests.push_back({i, static_cast<ObjectId>(i % 50), 100, Op::kGet});
  }
  const SpatialSampler s(0.3, 5);
  const Trace out = SampleTrace(t, s);
  // Every admitted object keeps all its requests: 1000/50 = 20 per object.
  std::unordered_map<ObjectId, int> counts;
  for (const Request& r : out.requests) {
    counts[r.id]++;
  }
  for (const auto& [id, c] : counts) {
    EXPECT_EQ(c, 20) << id;
  }
}

// --- Concatenation ---

TEST(ConcatTest, TimesShiftAndIdsRemap) {
  Trace a = MakeTrace();
  Trace b = MakeTrace();
  const Trace out = ConcatenateTraces(a, b, 1000);
  ASSERT_EQ(out.size(), 12u);
  EXPECT_TRUE(out.IsSorted());
  // Second trace starts after first end + gap.
  EXPECT_EQ(out.requests[6].time, 5000 + 1000);
  // Ids are disjoint.
  EXPECT_NE(out.requests[6].id, out.requests[0].id);
  EXPECT_EQ(out.requests[6].id & (1ull << 62), 1ull << 62);
}

TEST(ConcatTest, NameCombines) {
  Trace a = MakeTrace();
  a.name = "x";
  Trace b = MakeTrace();
  b.name = "y";
  EXPECT_EQ(ConcatenateTraces(a, b, 0).name, "x->y");
}

}  // namespace
}  // namespace macaron
