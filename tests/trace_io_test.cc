// Unit tests for the bulk CSV trace I/O path: the buffered writer and the
// from_chars parser (round trips, malformed inputs, corrupt headers).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/trace/trace.h"
#include "src/trace/trace_io.h"

namespace macaron {
namespace {

Trace MakeBigTrace(size_t n) {
  Trace t;
  t.name = "big";
  t.requests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Op op = i % 7 == 0 ? Op::kPut : (i % 31 == 0 ? Op::kDelete : Op::kGet);
    t.requests.push_back(Request{static_cast<SimTime>(i * 13),
                                 static_cast<ObjectId>(i * 2654435761u),
                                 1000 + (i % 4096) * 7, op});
  }
  return t;
}

std::string TempPath(const char* stem) { return testing::TempDir() + "/" + stem; }

void WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(contents.data(), 1, contents.size(), f), contents.size());
  std::fclose(f);
}

TEST(TraceIoBulkTest, CsvRoundTripAcrossFlushBoundary) {
  // ~40 bytes/row * 40000 rows > the 1 MB flush buffer.
  const size_t n = 40000;
  const Trace t = MakeBigTrace(n);
  const std::string path = TempPath("bulk_csv.csv");
  ASSERT_TRUE(WriteTraceCsv(t, path));
  Trace back;
  ASSERT_TRUE(ReadTraceCsv(path, &back));
  ASSERT_EQ(back.requests.size(), n);
  for (size_t i : {size_t{0}, n / 2, n - 1}) {
    EXPECT_EQ(back.requests[i], t.requests[i]) << i;
  }
  std::remove(path.c_str());
}

struct CsvCase {
  const char* label;
  const char* body;  // rows after the header
  bool ok;
};

TEST(TraceIoBulkTest, CsvMalformedInputs) {
  const std::string overlong = "1,GET,7," + std::string(243, '0') + "2048\n5,GET,8,10\n";
  const char* kOverlongLine = overlong.c_str();
  const CsvCase cases[] = {
      {"valid", "100,GET,7,2048\n", true},
      {"valid_crlf", "100,GET,7,2048\r\n", true},
      {"valid_no_trailing_newline", "100,GET,7,2048", true},
      {"negative_time", "-5,GET,7,2048\n", true},
      {"unknown_op", "100,POST,7,2048\n", false},
      {"lowercase_op", "100,get,7,2048\n", false},
      {"missing_field", "100,GET,7\n", false},
      {"extra_field", "100,GET,7,2048,9\n", false},
      {"empty_time", ",GET,7,2048\n", false},
      {"non_numeric_id", "100,GET,abc,2048\n", false},
      {"trailing_junk", "100,GET,7,2048x\n", false},
      {"negative_size", "100,GET,7,-1\n", false},
      {"size_overflow", "100,GET,7,99999999999999999999999\n", false},
      {"blank_trailing_line", "100,GET,7,2048\n\n", true},
      {"equal_times", "100,GET,7,2048\n100,PUT,8,10\n", true},
      {"decreasing_time", "100,GET,7,2048\n99,GET,8,10\n", false},
      // A row of 255 characters fills the reader's line buffer, so its
      // newline arrives as a blank line of its own: rejected, not split.
      {"overlong_line", kOverlongLine, false},
  };
  for (const CsvCase& c : cases) {
    const std::string path = TempPath("malformed.csv");
    WriteFile(path, std::string("time_ms,op,object_id,size_bytes\n") + c.body);
    Trace t;
    EXPECT_EQ(ReadTraceCsv(path, &t), c.ok) << c.label;
    std::remove(path.c_str());
  }
}

TEST(TraceIoBulkTest, CsvEmptyFileFails) {
  const std::string path = TempPath("empty.csv");
  WriteFile(path, "");
  Trace t;
  EXPECT_FALSE(ReadTraceCsv(path, &t));  // no header
  std::remove(path.c_str());
}

}  // namespace
}  // namespace macaron
