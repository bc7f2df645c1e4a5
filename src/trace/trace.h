// In-memory trace container and derived statistics.

#ifndef MACARON_SRC_TRACE_TRACE_H_
#define MACARON_SRC_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/page_allocator.h"
#include "src/trace/request.h"

namespace macaron {

// A time-ordered sequence of requests plus a workload name.
struct Trace {
  std::string name;
  std::vector<Request> requests;

  bool empty() const { return requests.empty(); }
  size_t size() const { return requests.size(); }
  SimTime start_time() const { return requests.empty() ? 0 : requests.front().time; }
  SimTime end_time() const { return requests.empty() ? 0 : requests.back().time; }
  SimDuration duration() const { return end_time() - start_time(); }

  // Verifies the time ordering invariant.
  bool IsSorted() const;
};

// Aggregate statistics over a trace (the columns of Table 2).
struct TraceStats {
  uint64_t num_requests = 0;
  uint64_t num_gets = 0;
  uint64_t num_puts = 0;
  uint64_t num_deletes = 0;
  uint64_t get_bytes = 0;       // total bytes fetched by GETs
  uint64_t put_bytes = 0;       // total bytes written by PUTs
  uint64_t unique_objects = 0;  // distinct object ids observed
  uint64_t unique_bytes = 0;    // total data size: sum of distinct object sizes
  uint64_t unique_get_bytes = 0;  // bytes of first-touch GETs (compulsory misses)
  double compulsory_miss_ratio = 0.0;  // unique_get_bytes / get_bytes
  double zipf_alpha = 0.0;             // least-squares fit of log freq vs log rank
  double mean_request_rate = 0.0;      // requests per second over the trace span
  uint64_t median_object_bytes = 0;

  std::string Summary() const;
};

TraceStats ComputeStats(const Trace& trace);

// Streaming accumulator behind ComputeStats: feed requests one at a time
// (in trace order) and Finish() at end of stream. Produces bit-identical
// TraceStats to ComputeStats over the same request sequence, but never
// needs the trace materialized — the out-of-core sources (columnar reader,
// synthetic stream generator) run their stats pre-pass through this.
//
// Memory is O(unique objects + distinct sizes), independent of trace
// length, in two flat open-addressing tables: object id -> GET count
// (presence alone marks a first touch) and request size -> count (the exact
// median's histogram). Each Add costs one probe of the size table, plus one
// of the id table for a GET or PUT. Finish compacts each table in place and
// sorts it once: the id counts for the Zipf fit, the sizes for the median.
// Both tables sit on pages mapped straight from the kernel (PageAllocator),
// so building stats does not move malloc's mmap threshold under the run
// that follows.
class TraceStatsBuilder {
 public:
  void Add(const Request& r);
  // Derived fields use the observed [first, last] request-time span, the
  // same span Trace::duration() yields on a sorted trace. Finish reorders
  // the tables in place, so it ends the builder: call it once, last.
  TraceStats Finish();

 private:
  // Linear-probing uint64 key -> count table. A cell holds 1 + the key's
  // tally, so 0 marks an empty cell and every key (0 and ~0 included) is
  // storable. Capacity is a power of two, at most half full.
  class CountTable {
   public:
    struct Cell {
      uint64_t key;
      uint64_t count;
    };

    // The count cell of `key`, set to 1 (an empty tally) when the key is
    // new; *inserted says which. Valid until the next Insert.
    uint64_t& Insert(uint64_t key, bool* inserted);
    size_t size() const { return used_; }
    // Moves the occupied cells to the front, in table order, and returns
    // how many there are. The table is no longer searchable afterwards.
    size_t Compact();
    Cell* cells() { return cells_.data(); }

   private:
    void Grow();

    std::vector<Cell, PageAllocator<Cell>> cells_;
    size_t used_ = 0;
  };

  TraceStats s_;
  CountTable ids_;    // object id -> 1 + GET count
  CountTable sizes_;  // request size -> 1 + requests of that size
  SimTime first_time_ = 0;
  SimTime last_time_ = 0;
  bool any_ = false;
};

}  // namespace macaron

#endif  // MACARON_SRC_TRACE_TRACE_H_
