// Unit tests for the MCTC chunked columnar trace format (columnar_io.h):
// round trips (materialized and chunk-by-chunk against the in-memory
// TraceSource adapter), footer-derived SourceInfo fidelity, the content
// identity hash, and the rejection paths — foreign files, truncation, a
// corrupt footer, a corrupt chunk payload (which must throw at FillNext,
// never replay silently), and crafted files whose checksums are valid but
// whose time column runs backwards or overflows.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/cache/replay_batch.h"
#include "src/common/hash.h"
#include "src/trace/columnar_io.h"
#include "src/trace/request_source.h"
#include "src/trace/trace.h"

namespace macaron {
namespace {

// Deterministic mixed-op trace with irregular time gaps (including zero
// deltas) so the delta-varint time column sees repeated and large steps.
Trace MakeTrace(size_t n) {
  Trace t;
  t.name = "columnar-test";
  t.requests.reserve(n);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  SimTime time = 0;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    time += static_cast<SimTime>(x % 97);  // 0 mod 97 => duplicate timestamps
    const Op op = x % 11 == 0 ? Op::kPut : (x % 29 == 0 ? Op::kDelete : Op::kGet);
    t.requests.push_back(
        Request{time, x % 5000, 1 + x % (1ull << 22), op});
  }
  return t;
}

std::string TempPath(const char* stem) { return testing::TempDir() + "/" + stem; }

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(ColumnarIoTest, RoundTripMaterializes) {
  const size_t n = 20000;
  const Trace t = MakeTrace(n);
  const std::string path = TempPath("roundtrip.mctc");
  std::string error;
  ASSERT_TRUE(WriteTraceColumnar(t, path, &error, /*chunk_records=*/4096)) << error;
  Trace back;
  ASSERT_TRUE(ReadTraceColumnar(path, &back, &error)) << error;
  EXPECT_EQ(back.name, t.name);
  ASSERT_EQ(back.requests.size(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(back.requests[i], t.requests[i]) << i;
  }
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, ChunksMatchTraceSourceByteForByte) {
  // The file reader must deliver the exact ReplayBatch columns (hashes
  // included) the in-memory adapter produces at the same chunk size: the
  // engines' bit-identity across sources rests on this.
  const Trace t = MakeTrace(10000);
  const std::string path = TempPath("columns.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/1024));
  auto file_source = ColumnarTraceSource::Open(path);
  ASSERT_NE(file_source, nullptr);
  TraceSource mem_source(t, /*chunk_records=*/1024);

  ReplayBatch from_file;
  ReplayBatch from_mem;
  size_t chunks = 0;
  for (;;) {
    const bool file_more = file_source->FillNext(&from_file);
    const bool mem_more = mem_source.FillNext(&from_mem);
    ASSERT_EQ(file_more, mem_more) << "sources disagree on stream length";
    if (!file_more) {
      break;
    }
    ASSERT_FALSE(from_file.empty());
    EXPECT_EQ(from_file.times, from_mem.times) << "chunk " << chunks;
    EXPECT_EQ(from_file.ids, from_mem.ids) << "chunk " << chunks;
    EXPECT_EQ(from_file.sizes, from_mem.sizes) << "chunk " << chunks;
    EXPECT_EQ(from_file.ops, from_mem.ops) << "chunk " << chunks;
    EXPECT_EQ(from_file.hashes, from_mem.hashes) << "chunk " << chunks;
    for (size_t i = 0; i < from_file.size(); ++i) {
      ASSERT_EQ(from_file.hashes[i], Mix64(from_file.ids[i])) << "hash-once contract";
    }
    ++chunks;
  }
  EXPECT_EQ(chunks, (t.size() + 1023) / 1024);
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, InfoMatchesMaterializedStats) {
  const Trace t = MakeTrace(5000);
  const std::string path = TempPath("info.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path));
  auto source = ColumnarTraceSource::Open(path);
  ASSERT_NE(source, nullptr);
  const SourceInfo expected = MakeSourceInfo(t);
  const SourceInfo& got = source->Info();
  EXPECT_EQ(got.name, expected.name);
  EXPECT_EQ(got.num_requests, expected.num_requests);
  EXPECT_EQ(got.start_time, expected.start_time);
  EXPECT_EQ(got.end_time, expected.end_time);
  EXPECT_EQ(got.stats.num_requests, expected.stats.num_requests);
  EXPECT_EQ(got.stats.num_gets, expected.stats.num_gets);
  EXPECT_EQ(got.stats.num_puts, expected.stats.num_puts);
  EXPECT_EQ(got.stats.num_deletes, expected.stats.num_deletes);
  EXPECT_EQ(got.stats.get_bytes, expected.stats.get_bytes);
  EXPECT_EQ(got.stats.put_bytes, expected.stats.put_bytes);
  EXPECT_EQ(got.stats.unique_objects, expected.stats.unique_objects);
  EXPECT_EQ(got.stats.unique_bytes, expected.stats.unique_bytes);
  EXPECT_EQ(got.stats.unique_get_bytes, expected.stats.unique_get_bytes);
  EXPECT_EQ(got.stats.median_object_bytes, expected.stats.median_object_bytes);
  // The doubles must be bit-identical (Setup derives configuration from
  // them; any drift would change engine outputs across sources).
  EXPECT_EQ(got.stats.compulsory_miss_ratio, expected.stats.compulsory_miss_ratio);
  EXPECT_EQ(got.stats.zipf_alpha, expected.stats.zipf_alpha);
  EXPECT_EQ(got.stats.mean_request_rate, expected.stats.mean_request_rate);
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, ResetRewindsToFirstChunk) {
  const Trace t = MakeTrace(3000);
  const std::string path = TempPath("reset.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/512));
  auto source = ColumnarTraceSource::Open(path);
  ASSERT_NE(source, nullptr);
  ReplayBatch chunk;
  std::vector<ObjectId> first_pass;
  while (source->FillNext(&chunk)) {
    first_pass.insert(first_pass.end(), chunk.ids.begin(), chunk.ids.end());
  }
  EXPECT_EQ(first_pass.size(), t.size());
  source->Reset();
  std::vector<ObjectId> second_pass;
  while (source->FillNext(&chunk)) {
    second_pass.insert(second_pass.end(), chunk.ids.begin(), chunk.ids.end());
  }
  EXPECT_EQ(second_pass, first_pass);
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, EmptyTraceRoundTrips) {
  Trace t;
  t.name = "empty";
  const std::string path = TempPath("empty.mctc");
  std::string error;
  ASSERT_TRUE(WriteTraceColumnar(t, path, &error)) << error;
  auto source = ColumnarTraceSource::Open(path, &error);
  ASSERT_NE(source, nullptr) << error;
  EXPECT_TRUE(source->Info().empty());
  ReplayBatch chunk;
  EXPECT_FALSE(source->FillNext(&chunk));
  Trace back;
  ASSERT_TRUE(ReadTraceColumnar(path, &back, &error)) << error;
  EXPECT_TRUE(back.empty());
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, WriterRejectsOutOfOrderAdd) {
  const std::string path = TempPath("unordered.mctc");
  ColumnarTraceWriter w(path, "unordered");
  w.Add(Request{100, 1, 10, Op::kGet});
  w.Add(Request{50, 2, 10, Op::kGet});  // time went backwards
  EXPECT_FALSE(w.ok());
  EXPECT_FALSE(w.Finish());
  EXPECT_FALSE(w.error().empty());
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, IdentityIsStableAndContentSensitive) {
  Trace t = MakeTrace(2000);
  const std::string path_a = TempPath("ident_a.mctc");
  const std::string path_b = TempPath("ident_b.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path_a));
  ASSERT_TRUE(WriteTraceColumnar(t, path_b));
  uint64_t a[2] = {0, 0};
  uint64_t b[2] = {0, 0};
  ASSERT_TRUE(ColumnarTraceIdentity(path_a, a));
  ASSERT_TRUE(ColumnarTraceIdentity(path_b, b));
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);

  t.requests[1000].size += 1;  // one byte of one record
  const std::string path_c = TempPath("ident_c.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path_c));
  uint64_t c[2] = {0, 0};
  ASSERT_TRUE(ColumnarTraceIdentity(path_c, c));
  EXPECT_TRUE(a[0] != c[0] || a[1] != c[1]) << "identity ignored a content change";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::remove(path_c.c_str());
}

TEST(ColumnarIoTest, OpenRejectsForeignFile) {
  const std::string path = TempPath("foreign.mctc");
  WriteFileBytes(path, "this is not a columnar trace, not even close");
  std::string error;
  EXPECT_EQ(ColumnarTraceSource::Open(path, &error), nullptr);
  EXPECT_FALSE(error.empty());
  uint64_t identity[2];
  EXPECT_FALSE(ColumnarTraceIdentity(path, identity, &error));
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, OpenRejectsMissingFile) {
  std::string error;
  EXPECT_EQ(ColumnarTraceSource::Open(TempPath("never_written.mctc"), &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(ColumnarIoTest, OpenRejectsTruncatedFile) {
  const Trace t = MakeTrace(4000);
  const std::string path = TempPath("truncated.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/512));
  const std::string whole = ReadFileBytes(path);
  // A torn trailer and a half-written file must both be rejected at Open.
  for (const size_t keep : {whole.size() - 1, whole.size() / 2, size_t{10}}) {
    WriteFileBytes(path, whole.substr(0, keep));
    std::string error;
    EXPECT_EQ(ColumnarTraceSource::Open(path, &error), nullptr) << "kept " << keep;
    EXPECT_FALSE(error.empty());
    Trace back;
    EXPECT_FALSE(ReadTraceColumnar(path, &back, &error)) << "kept " << keep;
  }
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, OpenRejectsCorruptFooter) {
  const Trace t = MakeTrace(4000);
  const std::string path = TempPath("badfooter.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/512));
  std::string bytes = ReadFileBytes(path);
  // The trailer is the last 24 bytes; flip a byte just inside the footer.
  ASSERT_GT(bytes.size(), size_t{64});
  bytes[bytes.size() - 24 - 5] ^= 0x40;
  WriteFileBytes(path, bytes);
  std::string error;
  EXPECT_EQ(ColumnarTraceSource::Open(path, &error), nullptr);
  EXPECT_FALSE(error.empty());
  uint64_t identity[2];
  EXPECT_FALSE(ColumnarTraceIdentity(path, identity, &error));
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, CorruptChunkThrowsAtFillNext) {
  const Trace t = MakeTrace(4000);
  const std::string path = TempPath("badchunk.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/512));
  std::string bytes = ReadFileBytes(path);
  // Flip a byte in the first chunk payload (chunks start right after the
  // 8-byte header). The footer still validates, so Open succeeds — the
  // damage must surface as a throw when that chunk decodes.
  bytes[9] ^= 0x01;
  WriteFileBytes(path, bytes);
  std::string error;
  auto source = ColumnarTraceSource::Open(path, &error);
  ASSERT_NE(source, nullptr) << error;
  ReplayBatch chunk;
  EXPECT_THROW(source->FillNext(&chunk), std::runtime_error);
  // The materializing reader must report the same damage as a clean error.
  Trace back;
  EXPECT_FALSE(ReadTraceColumnar(path, &back, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// --- Crafted files ---
//
// An MctcImage is a written file taken apart: the header, each chunk's
// directory entry with its payload, the trace span, and the rest of the
// footer. Assemble lays the chunks out again and recomputes every offset
// and checksum, so a rewritten payload, directory bound or span still
// passes the FNV checks and only the reader's own validation can catch it.

uint64_t TestFnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

uint64_t U64At(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[at + i])) << (8 * i);
  }
  return v;
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutVarint(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

struct MctcImage {
  struct Chunk {
    uint64_t count = 0;
    SimTime min_time = 0;
    SimTime max_time = 0;
    std::string payload;
  };
  std::string header;
  std::vector<Chunk> chunks;
  uint64_t num_requests = 0;
  SimTime start_time = 0;
  SimTime end_time = 0;
  std::string footer_tail;  // the stats block and the name
};

constexpr size_t kTestHeaderBytes = 8;
constexpr size_t kTestTrailerBytes = 24;
constexpr size_t kTestDirEntryBytes = 48;

MctcImage ParseImage(const std::string& bytes) {
  MctcImage img;
  img.header = bytes.substr(0, kTestHeaderBytes);
  const size_t trailer = bytes.size() - kTestTrailerBytes;
  const size_t footer = trailer - static_cast<size_t>(U64At(bytes, trailer));
  const uint64_t chunk_count = U64At(bytes, footer);
  size_t p = footer + 8;
  for (uint64_t i = 0; i < chunk_count; ++i, p += kTestDirEntryBytes) {
    MctcImage::Chunk c;
    const size_t offset = static_cast<size_t>(U64At(bytes, p));
    const size_t size = static_cast<size_t>(U64At(bytes, p + 8));
    c.count = U64At(bytes, p + 16);
    c.min_time = static_cast<SimTime>(U64At(bytes, p + 24));
    c.max_time = static_cast<SimTime>(U64At(bytes, p + 32));
    c.payload = bytes.substr(offset, size);
    img.chunks.push_back(c);
  }
  img.num_requests = U64At(bytes, p);
  img.start_time = static_cast<SimTime>(U64At(bytes, p + 8));
  img.end_time = static_cast<SimTime>(U64At(bytes, p + 16));
  img.footer_tail = bytes.substr(p + 24, trailer - p - 24);
  return img;
}

std::string Assemble(const MctcImage& img) {
  std::string out = img.header;
  std::string footer;
  PutU64(footer, img.chunks.size());
  for (const MctcImage::Chunk& c : img.chunks) {
    PutU64(footer, out.size());
    PutU64(footer, c.payload.size());
    PutU64(footer, c.count);
    PutU64(footer, static_cast<uint64_t>(c.min_time));
    PutU64(footer, static_cast<uint64_t>(c.max_time));
    PutU64(footer, TestFnv1a(c.payload));
    out += c.payload;
  }
  PutU64(footer, img.num_requests);
  PutU64(footer, static_cast<uint64_t>(img.start_time));
  PutU64(footer, static_cast<uint64_t>(img.end_time));
  footer += img.footer_tail;
  out += footer;
  PutU64(out, footer.size());
  PutU64(out, TestFnv1a(footer));
  out.append("MCTCEND2", 8);
  return out;
}

// A payload of `count` GETs of object 1 (1 byte each) whose time column is
// `first` followed by `deltas` (zero-padded to count - 1 steps).
std::string CraftedPayload(uint64_t count, SimTime first, const std::vector<uint64_t>& deltas) {
  std::string out;
  PutVarint(out, (static_cast<uint64_t>(first) << 1) ^ static_cast<uint64_t>(first >> 63));
  for (uint64_t i = 1; i < count; ++i) {
    PutVarint(out, i - 1 < deltas.size() ? deltas[i - 1] : 0);
  }
  for (uint64_t i = 0; i < count; ++i) {
    PutVarint(out, 1);  // id
  }
  for (uint64_t i = 0; i < count; ++i) {
    PutVarint(out, 1);  // size
  }
  out.append(static_cast<size_t>(count), static_cast<char>(Op::kGet));
  return out;
}

TEST(ColumnarIoTest, ImageHelperReassemblesWrittenFileExactly) {
  const Trace t = MakeTrace(2000);
  const std::string path = TempPath("image.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/512));
  const std::string bytes = ReadFileBytes(path);
  const MctcImage img = ParseImage(bytes);
  ASSERT_EQ(img.chunks.size(), 4u);
  EXPECT_EQ(Assemble(img), bytes);
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, RejectsTimeRunningBackwards) {
  constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();
  struct Row {
    const char* name;
    size_t records;  // of the written trace, in chunks of 512
    std::function<void(MctcImage&)> craft;
    bool caught_at_open;  // else at the first FillNext
  };
  const std::vector<Row> rows = {
      {"min_after_max", 2000,
       [](MctcImage& img) { img.chunks[0].min_time = img.chunks[0].max_time + 1; }, true},
      {"overlaps_previous_chunk", 2000,
       [](MctcImage& img) { img.chunks[1].min_time = img.chunks[0].max_time - 1; }, true},
      {"decoded_above_max", 2000,
       [](MctcImage& img) { img.chunks[0].max_time = img.chunks[0].min_time; }, false},
      {"decoded_below_min", 2000,
       [](MctcImage& img) {
         img.chunks[0].min_time += 1;
         img.start_time = img.chunks[0].min_time;
       },
       false},
      {"delta_wraps_backwards", 64,
       [&](MctcImage& img) {
         MctcImage::Chunk& c = img.chunks[0];
         c.payload = CraftedPayload(c.count, 10, {~uint64_t{0}});  // 10 + (2^64 - 1)
         c.min_time = img.start_time = 0;
         c.max_time = img.end_time = kMaxTime;
       },
       false},
      {"span_ends_before_last_chunk", 2000,
       [](MctcImage& img) { img.end_time = img.chunks.back().max_time / 4; }, true},
      {"delta_overflows", 64,
       [&](MctcImage& img) {
         MctcImage::Chunk& c = img.chunks[0];
         c.payload = CraftedPayload(c.count, 10, {static_cast<uint64_t>(kMaxTime)});
         c.min_time = img.start_time = 0;
         c.max_time = img.end_time = kMaxTime;
       },
       false},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const Trace t = MakeTrace(row.records);
    const std::string path = TempPath("crafted.mctc");
    ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/512));
    MctcImage img = ParseImage(ReadFileBytes(path));
    row.craft(img);
    WriteFileBytes(path, Assemble(img));
    std::string error;
    auto source = ColumnarTraceSource::Open(path, &error);
    if (row.caught_at_open) {
      EXPECT_EQ(source, nullptr);
      EXPECT_EQ(error.rfind("mctc: ", 0), 0u) << error;
    } else {
      ASSERT_NE(source, nullptr) << error;
      ReplayBatch chunk;
      EXPECT_THROW(source->FillNext(&chunk), std::runtime_error);
    }
    Trace back;
    error.clear();
    EXPECT_FALSE(ReadTraceColumnar(path, &back, &error));
    EXPECT_EQ(error.rfind("mctc: ", 0), 0u) << error;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace macaron
