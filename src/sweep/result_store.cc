#include "src/sweep/result_store.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/sim/report_io.h"

namespace macaron {
namespace sweep {

namespace {

// Framed store format: magic + payload size + payload checksum + payload.
// The header lets Load reject torn writes, truncated files, and foreign or
// stale-format blobs before handing bytes to the deserializer — a corrupt
// file reads as a cache miss (re-execute), never as a bogus result.
constexpr char kMagic[8] = {'M', 'R', 'S', 'F', '0', '0', '0', '1'};
constexpr size_t kHeaderBytes = sizeof(kMagic) + 8 + 8;

bool WriteFramed(const std::string& payload, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  char header[kHeaderBytes];
  std::memcpy(header, kMagic, sizeof(kMagic));
  StoreU64Le(header + sizeof(kMagic), payload.size());
  StoreU64Le(header + sizeof(kMagic) + 8, Fnv1a64(payload));
  const bool ok = std::fwrite(header, 1, kHeaderBytes, f) == kHeaderBytes &&
                  std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  const bool closed = std::fclose(f) == 0;
  return ok && closed;
}

bool ReadFramed(const std::string& path, std::string* payload) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  char header[kHeaderBytes];
  if (std::fread(header, 1, kHeaderBytes, f) != kHeaderBytes ||
      std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    std::fclose(f);
    return false;
  }
  const uint64_t size = LoadU64Le(header + sizeof(kMagic));
  const uint64_t checksum = LoadU64Le(header + sizeof(kMagic) + 8);
  // Size sanity cap: a RunResult blob is dominated by its latency samples;
  // even pathological runs stay far under this. Rejecting absurd headers
  // here avoids attempting a multi-gigabyte allocation on a corrupt file.
  constexpr uint64_t kMaxPayloadBytes = 1ull << 32;
  if (size > kMaxPayloadBytes) {
    std::fclose(f);
    return false;
  }
  payload->resize(static_cast<size_t>(size));
  const bool read_ok =
      std::fread(payload->data(), 1, payload->size(), f) == payload->size() &&
      std::fgetc(f) == EOF;  // trailing bytes mean a foreign/torn file
  std::fclose(f);
  return read_ok && Fnv1a64(*payload) == checksum;
}

}  // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) {
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    std::fprintf(stderr, "sweep: result store disabled (cannot create %s: %s)\n", dir_.c_str(),
                 ec.message().c_str());
    dir_.clear();
  }
}

std::string ResultStore::PathFor(const std::string& key_hex) const {
  return dir_ + "/" + key_hex + ".run";
}

bool ResultStore::Load(const std::string& key_hex, RunResult* out) {
  if (!enabled()) {
    return false;
  }
  std::string payload;
  if (ReadFramed(PathFor(key_hex), &payload) && DeserializeRunResult(payload, out)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool ResultStore::Store(const std::string& key_hex, const RunResult& r) {
  if (!enabled()) {
    return false;
  }
  // Unique temp name per write — across threads (counter) and across
  // processes sharing the directory (pid) — so concurrent stores of the
  // same key never share a temp file, and rename() makes publication atomic.
  const uint64_t n = tmp_counter_.fetch_add(1, std::memory_order_relaxed);
  const std::string tmp =
      PathFor(key_hex) + ".tmp" + std::to_string(getpid()) + "." + std::to_string(n);
  if (!WriteFramed(SerializeRunResult(r), tmp)) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), PathFor(key_hex).c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace sweep
}  // namespace macaron
