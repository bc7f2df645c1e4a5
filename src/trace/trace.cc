#include "src/trace/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/hash.h"

namespace macaron {

const char* OpName(Op op) {
  switch (op) {
    case Op::kGet:
      return "GET";
    case Op::kPut:
      return "PUT";
    case Op::kDelete:
      return "DELETE";
    default:
      return "UNKNOWN";
  }
}

bool Trace::IsSorted() const {
  for (size_t i = 1; i < requests.size(); ++i) {
    if (requests[i].time < requests[i - 1].time) {
      return false;
    }
  }
  return true;
}

namespace {

// Fits the Zipf exponent by least squares on log(frequency) vs log(rank).
// [first, last) holds the id cells of the objects with at least 2 GETs
// (singletons flatten the tail and are dominated by compulsory structure,
// not popularity skew) in descending count order; a cell's count is 1 + the
// object's GET count.
template <typename Cell>
double FitZipfAlpha(const Cell* first, const Cell* last) {
  // Regression over the head of the distribution.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  size_t n = 0;
  for (const Cell* c = first; c != last; ++c) {
    const double x = std::log(static_cast<double>(n + 1));
    const double y = std::log(static_cast<double>(c->count - 1));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  if (n < 8) {
    return 0.0;
  }
  const double nd = static_cast<double>(n);
  const double denom = nd * sxx - sx * sx;
  if (denom <= 0.0) {
    return 0.0;
  }
  const double slope = (nd * sxy - sx * sy) / denom;
  return std::max(0.0, -slope);
}

}  // namespace

uint64_t& TraceStatsBuilder::CountTable::Insert(uint64_t key, bool* inserted) {
  if (2 * (used_ + 1) > cells_.size()) {
    Grow();
  }
  const size_t mask = cells_.size() - 1;
  for (size_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
    Cell& c = cells_[i];
    if (c.count == 0) {
      c.key = key;
      c.count = 1;
      ++used_;
      *inserted = true;
      return c.count;
    }
    if (c.key == key) {
      *inserted = false;
      return c.count;
    }
  }
}

void TraceStatsBuilder::CountTable::Grow() {
  // Start at one page; double from there.
  constexpr size_t kPageCells = 4096 / sizeof(Cell);
  std::vector<Cell, PageAllocator<Cell>> old(std::max(kPageCells, 2 * cells_.size()));
  old.swap(cells_);
  const size_t mask = cells_.size() - 1;
  for (const Cell& c : old) {
    if (c.count != 0) {
      size_t i = Mix64(c.key) & mask;
      while (cells_[i].count != 0) {
        i = (i + 1) & mask;
      }
      cells_[i] = c;
    }
  }
}

size_t TraceStatsBuilder::CountTable::Compact() {
  size_t n = 0;
  for (const Cell& c : cells_) {
    if (c.count != 0) {
      cells_[n++] = c;
    }
  }
  return n;
}

void TraceStatsBuilder::Add(const Request& r) {
  if (!any_) {
    first_time_ = r.time;
    any_ = true;
  }
  last_time_ = r.time;
  ++s_.num_requests;
  bool inserted;
  ++sizes_.Insert(r.size, &inserted);
  switch (r.op) {
    case Op::kGet: {
      ++s_.num_gets;
      s_.get_bytes += r.size;
      ++ids_.Insert(r.id, &inserted);
      if (inserted) {
        s_.unique_bytes += r.size;
        s_.unique_get_bytes += r.size;
      }
      break;
    }
    case Op::kPut: {
      ++s_.num_puts;
      s_.put_bytes += r.size;
      ids_.Insert(r.id, &inserted);
      if (inserted) {
        s_.unique_bytes += r.size;
      }
      break;
    }
    case Op::kDelete:
      ++s_.num_deletes;
      break;
  }
}

TraceStats TraceStatsBuilder::Finish() {
  using Cell = CountTable::Cell;
  TraceStats s = s_;
  s.unique_objects = ids_.size();
  s.compulsory_miss_ratio =
      s.get_bytes == 0 ? 0.0
                       : static_cast<double>(s.unique_get_bytes) / static_cast<double>(s.get_bytes);
  Cell* const ids = ids_.cells();
  Cell* const fit_end = std::partition(ids, ids + ids_.Compact(),
                                       [](const Cell& c) { return c.count - 1 >= 2; });
  std::sort(ids, fit_end, [](const Cell& a, const Cell& b) { return a.count > b.count; });
  s.zipf_alpha = FitZipfAlpha(ids, fit_end);
  const SimDuration span = last_time_ - first_time_;
  s.mean_request_rate =
      span <= 0 ? 0.0 : static_cast<double>(s.num_requests) / DurationSeconds(span);
  if (s.num_requests > 0) {
    // The mid-th order statistic of the full size sequence, read off the
    // size histogram sorted by size (identical to nth_element on a vector
    // of every request's size, without materializing that vector).
    Cell* const sizes = sizes_.cells();
    const size_t distinct = sizes_.Compact();
    std::sort(sizes, sizes + distinct, [](const Cell& a, const Cell& b) { return a.key < b.key; });
    const uint64_t mid = s.num_requests / 2;
    uint64_t cum = 0;
    for (size_t i = 0; i < distinct; ++i) {
      cum += sizes[i].count - 1;
      if (cum > mid) {
        s.median_object_bytes = sizes[i].key;
        break;
      }
    }
  }
  return s;
}

TraceStats ComputeStats(const Trace& trace) {
  TraceStatsBuilder b;
  for (const Request& r : trace.requests) {
    b.Add(r);
  }
  return b.Finish();
}

std::string TraceStats::Summary() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "reqs=%llu (get=%llu put=%llu del=%llu) get_bytes=%.2fGB put_bytes=%.2fGB "
                "dataset=%.2fGB objs=%llu compulsory=%.3f alpha=%.2f rate=%.1f/s",
                static_cast<unsigned long long>(num_requests),
                static_cast<unsigned long long>(num_gets),
                static_cast<unsigned long long>(num_puts),
                static_cast<unsigned long long>(num_deletes), static_cast<double>(get_bytes) / 1e9,
                static_cast<double>(put_bytes) / 1e9, static_cast<double>(unique_bytes) / 1e9,
                static_cast<unsigned long long>(unique_objects), compulsory_miss_ratio, zipf_alpha,
                mean_request_rate);
  return buf;
}

}  // namespace macaron
