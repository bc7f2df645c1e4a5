// Unit tests for src/trace: container, statistics, I/O, splitting, sampling,
// concatenation.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/common/units.h"
#include "src/trace/concat.h"
#include "src/trace/sampler.h"
#include "src/trace/splitter.h"
#include "src/trace/trace.h"
#include "src/trace/trace_io.h"

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
