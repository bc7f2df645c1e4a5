#include "src/trace/trace_io.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

namespace macaron {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// Parses one CSV field as an integer, advancing `p` past the field and the
// trailing delimiter. Rejects empty/malformed/overflowing fields.
template <typename Int>
bool ParseIntField(const char*& p, const char* end, char delim, Int* out) {
  const auto [next, ec] = std::from_chars(p, end, *out);
  if (ec != std::errc() || next == p) {
    return false;
  }
  p = next;
  if (delim != '\0') {
    if (p == end || *p != delim) {
      return false;
    }
    ++p;
  }
  return true;
}

// True when fgets filled `line` (capacity `cap`) without reaching a
// newline: the line is longer than the buffer, and the next fgets would hand
// back its tail as a line of its own.
bool Overlong(const char* line, size_t cap) {
  const size_t len = std::strlen(line);
  return len == cap - 1 && line[len - 1] != '\n';
}

}  // namespace

bool WriteTraceCsv(const Trace& trace, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) {
    return false;
  }
  // Rows are formatted into a buffer and flushed in bulk; snprintf into
  // memory is much cheaper than fprintf's per-call locking and flushing.
  std::string buf;
  buf.reserve(1 << 20);
  buf.append("time_ms,op,object_id,size_bytes\n");
  char row[96];
  for (const Request& r : trace.requests) {
    const int len = std::snprintf(row, sizeof(row), "%" PRId64 ",%s,%" PRIu64 ",%" PRIu64 "\n",
                                  r.time, OpName(r.op), r.id, r.size);
    if (len < 0 || static_cast<size_t>(len) >= sizeof(row)) {
      return false;
    }
    buf.append(row, static_cast<size_t>(len));
    if (buf.size() >= (1 << 20) - sizeof(row)) {
      if (std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size()) {
        return false;
      }
      buf.clear();
    }
  }
  if (!buf.empty() && std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size()) {
    return false;
  }
  return true;
}

bool ReadTraceCsv(const std::string& path, Trace* out) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (f == nullptr) {
    return false;
  }
  out->requests.clear();
  char line[256];
  // Header.
  if (std::fgets(line, sizeof(line), f.get()) == nullptr || Overlong(line, sizeof(line))) {
    return false;
  }
  SimTime prev_time = std::numeric_limits<SimTime>::min();
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    if (Overlong(line, sizeof(line))) {
      return false;
    }
    const char* p = line;
    const char* end = line + std::strlen(line);
    while (end > p && (end[-1] == '\n' || end[-1] == '\r')) {
      --end;
    }
    if (p == end) {
      continue;  // tolerate a trailing blank line
    }
    int64_t t = 0;
    if (!ParseIntField(p, end, ',', &t) || t < prev_time) {
      return false;  // malformed, or out of time order
    }
    prev_time = t;
    const char* comma = static_cast<const char*>(std::memchr(p, ',', end - p));
    if (comma == nullptr) {
      return false;
    }
    Op op;
    const size_t op_len = static_cast<size_t>(comma - p);
    if (op_len == 3 && std::memcmp(p, "GET", 3) == 0) {
      op = Op::kGet;
    } else if (op_len == 3 && std::memcmp(p, "PUT", 3) == 0) {
      op = Op::kPut;
    } else if (op_len == 6 && std::memcmp(p, "DELETE", 6) == 0) {
      op = Op::kDelete;
    } else {
      return false;
    }
    p = comma + 1;
    uint64_t id = 0;
    uint64_t size = 0;
    if (!ParseIntField(p, end, ',', &id) || !ParseIntField(p, end, '\0', &size) || p != end) {
      return false;
    }
    out->requests.push_back(Request{t, id, size, op});
  }
  return true;
}

}  // namespace macaron
