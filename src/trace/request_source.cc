#include "src/trace/request_source.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/common/hash.h"

namespace macaron {

SourceInfo MakeSourceInfo(const Trace& trace) {
  SourceInfo info;
  info.name = trace.name;
  info.num_requests = trace.size();
  info.start_time = trace.start_time();
  info.end_time = trace.end_time();
  // The stats walk doubles as the time-order check every other ingest path
  // (CSV, MCTC) makes: an unsorted trace would replay with windows and
  // TTLs running backwards.
  TraceStatsBuilder stats;
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    if (i > 0 && trace.requests[i].time < trace.requests[i - 1].time) {
      throw std::invalid_argument("trace '" + trace.name +
                                  "': requests must be time-ordered (time went backwards at "
                                  "index " +
                                  std::to_string(i) + ")");
    }
    stats.Add(trace.requests[i]);
  }
  info.stats = stats.Finish();
  return info;
}

TraceSource::TraceSource(const Trace& trace, size_t chunk_records)
    : trace_(trace),
      info_(MakeSourceInfo(trace)),
      chunk_records_(std::max<size_t>(chunk_records, 1)) {}

bool TraceSource::FillNext(ReplayBatch* out) {
  out->Clear();
  const std::vector<Request>& reqs = trace_.requests;
  if (pos_ >= reqs.size()) {
    return false;
  }
  const size_t n = std::min(chunk_records_, reqs.size() - pos_);
  out->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Request& r = reqs[pos_ + i];
    out->PushBack(r, Mix64(r.id));
  }
  pos_ += n;
  return true;
}

ChunkCursor::ChunkCursor(RequestSource& source, bool decode_ahead) : source_(source) {
  source_.Reset();
  if (decode_ahead) {
    pool_ = std::make_unique<ThreadPool>(2);
    StartFill(0);
  }
}

ChunkCursor::~ChunkCursor() {
  // Let an in-flight decode finish before the buffers go away (~ThreadPool
  // also drains, but the future may hold the task's exception).
  if (inflight_.valid()) {
    try {
      inflight_.get();
    } catch (...) {
      // A failing decode during teardown has nowhere to report.
    }
  }
}

void ChunkCursor::StartFill(int buf) {
  inflight_ = pool_->Submit([this, buf] { fill_ok_[buf] = source_.FillNext(&bufs_[buf]); });
}

const ReplayBatch* ChunkCursor::Next() {
  if (exhausted_) {
    return nullptr;
  }
  const int cur = next_buf_;
  if (pool_ != nullptr) {
    inflight_.get();  // decode of bufs_[cur] (rethrows decode errors)
  } else {
    fill_ok_[cur] = source_.FillNext(&bufs_[cur]);
  }
  if (!fill_ok_[cur]) {
    exhausted_ = true;
    return nullptr;
  }
  next_buf_ = 1 - cur;
  if (pool_ != nullptr) {
    StartFill(next_buf_);
  }
  return &bufs_[cur];
}

}  // namespace macaron
