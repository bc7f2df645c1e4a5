#include "src/trace/columnar_io.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/hash.h"

namespace macaron {

namespace {

constexpr char kMagic[4] = {'M', 'C', 'T', 'C'};
constexpr uint32_t kVersion = 2;
constexpr char kEndMagic[8] = {'M', 'C', 'T', 'C', 'E', 'N', 'D', '2'};
constexpr size_t kHeaderBytes = sizeof(kMagic) + sizeof(uint32_t);
constexpr size_t kTrailerBytes = 8 + 8 + sizeof(kEndMagic);
// Sanity caps mirroring the ResultStore's: reject absurd headers before
// attempting a matching allocation on a corrupt file.
constexpr uint64_t kMaxFooterBytes = 1ull << 32;
constexpr uint64_t kMaxChunkBytes = 1ull << 32;

void AppendU64Le(std::string& out, uint64_t v) {
  char b[8];
  StoreU64Le(b, v);
  out.append(b, 8);
}

bool ReadU64Le(const char*& p, const char* end, uint64_t* out) {
  if (end - p < 8) {
    return false;
  }
  *out = LoadU64Le(p);
  p += 8;
  return true;
}

void AppendVarint(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

bool ParseVarint(const char*& p, const char* end, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (p < end && shift < 64) {
    const uint8_t b = static_cast<uint8_t>(*p++);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// One chunk's columns: times as zigzag-first + non-negative deltas, ids and
// sizes as varints, ops as raw bytes. Self-delimiting given the record
// count from the directory; no per-column length prefixes needed.
void EncodeChunk(const std::vector<Request>& reqs, std::string* out) {
  out->clear();
  AppendVarint(*out, ZigZag(reqs.front().time));
  for (size_t i = 1; i < reqs.size(); ++i) {
    AppendVarint(*out, static_cast<uint64_t>(reqs[i].time - reqs[i - 1].time));
  }
  for (const Request& r : reqs) {
    AppendVarint(*out, r.id);
  }
  for (const Request& r : reqs) {
    AppendVarint(*out, r.size);
  }
  for (const Request& r : reqs) {
    out->push_back(static_cast<char>(static_cast<uint8_t>(r.op)));
  }
}

// Decodes one chunk payload into ReplayBatch columns, computing the Mix64
// ingest hash per record. False on any structural violation (short column,
// trailing bytes, op out of range, a time outside the directory's
// [min_time, max_time]) — reachable only if a corrupt payload also
// collides the chunk checksum, or a crafted file rewrites both.
bool DecodeChunk(std::string_view payload, uint64_t count, SimTime min_time,
                 SimTime max_time, ReplayBatch* out) {
  out->Clear();
  if (count == 0) {
    return false;
  }
  out->Reserve(count);
  const char* p = payload.data();
  const char* end = p + payload.size();
  uint64_t zz = 0;
  if (!ParseVarint(p, end, &zz)) {
    return false;
  }
  SimTime t = UnZigZag(zz);
  if (t < min_time || t > max_time) {
    return false;
  }
  out->times.push_back(t);
  for (uint64_t i = 1; i < count; ++i) {
    uint64_t delta = 0;
    // The step is bounded by the room left below max_time; both that room
    // and the step itself are taken in unsigned arithmetic, where they are
    // exact (t <= max_time), so no signed overflow is possible.
    if (!ParseVarint(p, end, &delta) ||
        delta > static_cast<uint64_t>(max_time) - static_cast<uint64_t>(t)) {
      return false;
    }
    t = static_cast<SimTime>(static_cast<uint64_t>(t) + delta);
    out->times.push_back(t);
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    if (!ParseVarint(p, end, &id)) {
      return false;
    }
    out->ids.push_back(id);
    out->hashes.push_back(Mix64(id));
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t size = 0;
    if (!ParseVarint(p, end, &size)) {
      return false;
    }
    out->sizes.push_back(size);
  }
  if (static_cast<uint64_t>(end - p) != count) {
    return false;
  }
  for (uint64_t i = 0; i < count; ++i) {
    const uint8_t op = static_cast<uint8_t>(p[i]);
    if (op > static_cast<uint8_t>(Op::kDelete)) {
      return false;
    }
    out->ops.push_back(static_cast<Op>(op));
  }
  return true;
}

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

// Reads and validates the footer payload: header magic/version, trailer
// magic, size sanity, footer checksum. The caller still owns `f`'s cursor.
bool LoadFooter(std::FILE* f, const std::string& path, std::string* footer,
                std::string* error) {
  char header[kHeaderBytes];
  if (std::fread(header, 1, kHeaderBytes, f) != kHeaderBytes ||
      std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    SetError(error, "mctc: " + path + ": missing MCTC magic");
    return false;
  }
  uint32_t version = 0;
  std::memcpy(&version, header + sizeof(kMagic), sizeof(version));
  if (version != kVersion) {
    SetError(error, "mctc: " + path + ": unsupported version " + std::to_string(version));
    return false;
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    SetError(error, "mctc: " + path + ": seek failed");
    return false;
  }
  const long file_end = std::ftell(f);
  if (file_end < 0 ||
      static_cast<uint64_t>(file_end) < kHeaderBytes + kTrailerBytes) {
    SetError(error, "mctc: " + path + ": truncated (no trailer)");
    return false;
  }
  char trailer[kTrailerBytes];
  if (std::fseek(f, file_end - static_cast<long>(kTrailerBytes), SEEK_SET) != 0 ||
      std::fread(trailer, 1, kTrailerBytes, f) != kTrailerBytes ||
      std::memcmp(trailer + 16, kEndMagic, sizeof(kEndMagic)) != 0) {
    SetError(error, "mctc: " + path + ": missing end magic (torn or foreign file)");
    return false;
  }
  const uint64_t footer_bytes = LoadU64Le(trailer);
  const uint64_t footer_fnv = LoadU64Le(trailer + 8);
  if (footer_bytes > kMaxFooterBytes ||
      footer_bytes + kHeaderBytes + kTrailerBytes > static_cast<uint64_t>(file_end)) {
    SetError(error, "mctc: " + path + ": implausible footer size");
    return false;
  }
  footer->resize(static_cast<size_t>(footer_bytes));
  if (std::fseek(f, file_end - static_cast<long>(kTrailerBytes + footer_bytes), SEEK_SET) != 0 ||
      std::fread(footer->data(), 1, footer->size(), f) != footer->size()) {
    SetError(error, "mctc: " + path + ": footer read failed");
    return false;
  }
  if (Fnv1a64(*footer) != footer_fnv) {
    SetError(error, "mctc: " + path + ": footer checksum mismatch");
    return false;
  }
  return true;
}

}  // namespace

ColumnarTraceWriter::ColumnarTraceWriter(const std::string& path, const std::string& trace_name,
                                         size_t chunk_records)
    : name_(trace_name), chunk_records_(std::max<size_t>(chunk_records, 1)) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    Fail("mctc: cannot open " + path + " for writing");
    return;
  }
  char header[kHeaderBytes];
  std::memcpy(header, kMagic, sizeof(kMagic));
  std::memcpy(header + sizeof(kMagic), &kVersion, sizeof(kVersion));
  if (std::fwrite(header, 1, kHeaderBytes, file_) != kHeaderBytes) {
    Fail("mctc: header write failed");
    return;
  }
  offset_ = kHeaderBytes;
  pending_.reserve(chunk_records_);
}

ColumnarTraceWriter::~ColumnarTraceWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void ColumnarTraceWriter::Fail(const std::string& message) {
  if (error_.empty()) {
    error_ = message;
  }
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void ColumnarTraceWriter::Add(const Request& r) {
  if (!ok() || finished_) {
    return;
  }
  if (num_requests_ > 0 && r.time < last_time_) {
    Fail("mctc: requests must be time-ordered (time went backwards at record " +
         std::to_string(num_requests_) + ")");
    return;
  }
  if (num_requests_ == 0) {
    start_time_ = r.time;
  }
  last_time_ = r.time;
  end_time_ = r.time;
  ++num_requests_;
  stats_.Add(r);
  pending_.push_back(r);
  if (pending_.size() >= chunk_records_) {
    FlushChunk();
  }
}

void ColumnarTraceWriter::FlushChunk() {
  if (pending_.empty() || !ok()) {
    return;
  }
  EncodeChunk(pending_, &payload_);
  ChunkMeta meta;
  meta.offset = offset_;
  meta.bytes = payload_.size();
  meta.count = pending_.size();
  meta.min_time = pending_.front().time;
  meta.max_time = pending_.back().time;
  meta.fnv = Fnv1a64(payload_);
  if (std::fwrite(payload_.data(), 1, payload_.size(), file_) != payload_.size()) {
    Fail("mctc: chunk write failed");
    return;
  }
  offset_ += payload_.size();
  directory_.push_back(meta);
  pending_.clear();
}

bool ColumnarTraceWriter::Finish() {
  if (finished_) {
    return ok();
  }
  finished_ = true;
  if (!ok()) {
    return false;
  }
  FlushChunk();
  if (!ok()) {
    return false;
  }
  std::string footer;
  AppendU64Le(footer, directory_.size());
  for (const ChunkMeta& m : directory_) {
    AppendU64Le(footer, m.offset);
    AppendU64Le(footer, m.bytes);
    AppendU64Le(footer, m.count);
    AppendU64Le(footer, static_cast<uint64_t>(m.min_time));
    AppendU64Le(footer, static_cast<uint64_t>(m.max_time));
    AppendU64Le(footer, m.fnv);
  }
  AppendU64Le(footer, num_requests_);
  AppendU64Le(footer, static_cast<uint64_t>(start_time_));
  AppendU64Le(footer, static_cast<uint64_t>(end_time_));
  const TraceStats s = stats_.Finish();
  AppendU64Le(footer, s.num_requests);
  AppendU64Le(footer, s.num_gets);
  AppendU64Le(footer, s.num_puts);
  AppendU64Le(footer, s.num_deletes);
  AppendU64Le(footer, s.get_bytes);
  AppendU64Le(footer, s.put_bytes);
  AppendU64Le(footer, s.unique_objects);
  AppendU64Le(footer, s.unique_bytes);
  AppendU64Le(footer, s.unique_get_bytes);
  AppendU64Le(footer, std::bit_cast<uint64_t>(s.compulsory_miss_ratio));
  AppendU64Le(footer, std::bit_cast<uint64_t>(s.zipf_alpha));
  AppendU64Le(footer, std::bit_cast<uint64_t>(s.mean_request_rate));
  AppendU64Le(footer, s.median_object_bytes);
  AppendU64Le(footer, name_.size());
  footer.append(name_);

  std::string trailer;
  AppendU64Le(trailer, footer.size());
  AppendU64Le(trailer, Fnv1a64(footer));
  trailer.append(kEndMagic, sizeof(kEndMagic));
  if (std::fwrite(footer.data(), 1, footer.size(), file_) != footer.size() ||
      std::fwrite(trailer.data(), 1, trailer.size(), file_) != trailer.size()) {
    Fail("mctc: footer write failed");
    return false;
  }
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!closed) {
    Fail("mctc: close failed");
    return false;
  }
  return true;
}

bool WriteTraceColumnar(const Trace& trace, const std::string& path, std::string* error,
                        size_t chunk_records) {
  ColumnarTraceWriter w(path, trace.name, chunk_records);
  for (const Request& r : trace.requests) {
    w.Add(r);
  }
  if (!w.Finish()) {
    SetError(error, w.error());
    return false;
  }
  return true;
}

ColumnarTraceSource::~ColumnarTraceSource() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

std::unique_ptr<ColumnarTraceSource> ColumnarTraceSource::Open(const std::string& path,
                                                               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    SetError(error, "mctc: cannot open " + path);
    return nullptr;
  }
  std::string footer;
  if (!LoadFooter(f, path, &footer, error)) {
    std::fclose(f);
    return nullptr;
  }
  std::unique_ptr<ColumnarTraceSource> src(new ColumnarTraceSource());
  src->path_ = path;
  const char* p = footer.data();
  const char* end = p + footer.size();
  const auto fail = [&](const std::string& what) {
    SetError(error, "mctc: " + path + ": " + what);
    std::fclose(f);
    return nullptr;
  };
  uint64_t chunk_count = 0;
  if (!ReadU64Le(p, end, &chunk_count) || chunk_count > kMaxFooterBytes / 48) {
    return fail("bad chunk count");
  }
  src->directory_.reserve(static_cast<size_t>(chunk_count));
  uint64_t total_records = 0;
  for (uint64_t i = 0; i < chunk_count; ++i) {
    ChunkMeta m;
    uint64_t min_t = 0, max_t = 0;
    if (!ReadU64Le(p, end, &m.offset) || !ReadU64Le(p, end, &m.bytes) ||
        !ReadU64Le(p, end, &m.count) || !ReadU64Le(p, end, &min_t) ||
        !ReadU64Le(p, end, &max_t) || !ReadU64Le(p, end, &m.fnv)) {
      return fail("short chunk directory");
    }
    m.min_time = static_cast<SimTime>(min_t);
    m.max_time = static_cast<SimTime>(max_t);
    if (m.bytes > kMaxChunkBytes || m.count == 0 || m.count > m.bytes) {
      return fail("implausible chunk extent");
    }
    if (m.min_time > m.max_time ||
        (!src->directory_.empty() && m.min_time < src->directory_.back().max_time)) {
      return fail("chunk time range runs backwards");
    }
    total_records += m.count;
    src->directory_.push_back(m);
  }
  uint64_t num_requests = 0, start_t = 0, end_t = 0;
  if (!ReadU64Le(p, end, &num_requests) || !ReadU64Le(p, end, &start_t) ||
      !ReadU64Le(p, end, &end_t)) {
    return fail("short footer");
  }
  if (num_requests != total_records) {
    return fail("record count does not match chunk directory");
  }
  // The trace span drives the engines' last boundary and every per-time
  // average, so it must be exactly the directory's first and last time.
  if (!src->directory_.empty() &&
      (static_cast<SimTime>(start_t) != src->directory_.front().min_time ||
       static_cast<SimTime>(end_t) != src->directory_.back().max_time)) {
    return fail("trace span does not match chunk directory");
  }
  TraceStats& s = src->info_.stats;
  uint64_t f64 = 0;
  if (!ReadU64Le(p, end, &s.num_requests) || !ReadU64Le(p, end, &s.num_gets) ||
      !ReadU64Le(p, end, &s.num_puts) || !ReadU64Le(p, end, &s.num_deletes) ||
      !ReadU64Le(p, end, &s.get_bytes) || !ReadU64Le(p, end, &s.put_bytes) ||
      !ReadU64Le(p, end, &s.unique_objects) || !ReadU64Le(p, end, &s.unique_bytes) ||
      !ReadU64Le(p, end, &s.unique_get_bytes)) {
    return fail("short stats block");
  }
  if (!ReadU64Le(p, end, &f64)) {
    return fail("short stats block");
  }
  s.compulsory_miss_ratio = std::bit_cast<double>(f64);
  if (!ReadU64Le(p, end, &f64)) {
    return fail("short stats block");
  }
  s.zipf_alpha = std::bit_cast<double>(f64);
  if (!ReadU64Le(p, end, &f64)) {
    return fail("short stats block");
  }
  s.mean_request_rate = std::bit_cast<double>(f64);
  if (!ReadU64Le(p, end, &s.median_object_bytes)) {
    return fail("short stats block");
  }
  uint64_t name_len = 0;
  if (!ReadU64Le(p, end, &name_len) || name_len != static_cast<uint64_t>(end - p)) {
    return fail("bad name length");
  }
  src->info_.name.assign(p, static_cast<size_t>(name_len));
  src->info_.num_requests = num_requests;
  src->info_.start_time = static_cast<SimTime>(start_t);
  src->info_.end_time = static_cast<SimTime>(end_t);
  src->file_ = f;
  return src;
}

bool ColumnarTraceSource::FillNext(ReplayBatch* out) {
  out->Clear();
  if (next_chunk_ >= directory_.size()) {
    return false;
  }
  const ChunkMeta& m = directory_[next_chunk_];
  payload_.resize(static_cast<size_t>(m.bytes));
  if (std::fseek(file_, static_cast<long>(m.offset), SEEK_SET) != 0 ||
      std::fread(payload_.data(), 1, payload_.size(), file_) != payload_.size()) {
    throw std::runtime_error("mctc: " + path_ + ": chunk " + std::to_string(next_chunk_) +
                             " read failed (truncated file)");
  }
  if (Fnv1a64(payload_) != m.fnv) {
    throw std::runtime_error("mctc: " + path_ + ": chunk " + std::to_string(next_chunk_) +
                             " checksum mismatch");
  }
  if (!DecodeChunk(payload_, m.count, m.min_time, m.max_time, out)) {
    throw std::runtime_error("mctc: " + path_ + ": chunk " + std::to_string(next_chunk_) +
                             " decode failed");
  }
  ++next_chunk_;
  return true;
}

bool ReadTraceColumnar(const std::string& path, Trace* out, std::string* error) {
  std::string open_error;
  std::unique_ptr<ColumnarTraceSource> src = ColumnarTraceSource::Open(path, &open_error);
  if (src == nullptr) {
    SetError(error, open_error);
    return false;
  }
  out->name = src->Info().name;
  out->requests.clear();
  out->requests.reserve(static_cast<size_t>(src->Info().num_requests));
  ReplayBatch batch;
  try {
    while (src->FillNext(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        out->requests.push_back(batch.RowAt(i));
      }
    }
  } catch (const std::exception& e) {
    SetError(error, e.what());
    out->requests.clear();
    return false;
  }
  return true;
}

bool ColumnarTraceIdentity(const std::string& path, uint64_t identity[2], std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    SetError(error, "mctc: cannot open " + path);
    return false;
  }
  std::string footer;
  const bool ok = LoadFooter(f, path, &footer, error);
  std::fclose(f);
  if (!ok) {
    return false;
  }
  // Two independent lanes over the validated footer payload (which pins the
  // per-chunk checksums): FNV-1a plus a chained Mix64 over 8-byte words.
  identity[0] = Fnv1a64(footer);
  uint64_t h = 0x9ae16a3b2f90404full ^ footer.size();
  for (size_t i = 0; i < footer.size(); i += 8) {
    char word[8] = {0};
    std::memcpy(word, footer.data() + i, std::min<size_t>(8, footer.size() - i));
    h = HashCombine(h, LoadU64Le(word));
  }
  identity[1] = h;
  return true;
}

}  // namespace macaron
