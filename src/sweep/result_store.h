// Persistent, content-addressed store of RunResults.
//
// One file per job fingerprint (`<dir>/<32-hex>.run`, the binary blob from
// report_io). A figure that re-runs — or a different figure whose sweep
// shares jobs with an earlier one — loads the finished result instead of
// replaying the trace. Invalidation is purely key-based: results are
// never patched in place, so a changed config, trace, or version salt simply
// misses and recomputes under a new key. Deleting the directory (or any
// *.run file) forces a cold run.
//
// Writes go to a unique temp file in the same directory and are renamed into
// place, so concurrent writers of the same key and readers racing a writer
// only ever see complete blobs. Each file is framed with a magic tag, the
// payload size, and an FNV-1a checksum of the payload; Load verifies all
// three before deserializing, so a truncated, bit-flipped, or foreign file
// is detected up front and reads as a miss (the job re-executes) instead of
// being trusted because it happens to parse.

#ifndef MACARON_SRC_SWEEP_RESULT_STORE_H_
#define MACARON_SRC_SWEEP_RESULT_STORE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/sim/run_result.h"

namespace macaron {
namespace sweep {

class ResultStore {
 public:
  // An empty dir disables the store (Load always misses, Store is a no-op).
  // The directory is created if missing; if creation fails the store
  // disables itself rather than failing every job.
  explicit ResultStore(std::string dir);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  // Loads the result for `key_hex` (a Fingerprint::Hex()). False on miss or
  // on an unreadable/corrupt file.
  bool Load(const std::string& key_hex, RunResult* out);
  // Persists `r` under `key_hex`, atomically. False on I/O failure.
  bool Store(const std::string& key_hex, const RunResult& r);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }

 private:
  std::string PathFor(const std::string& key_hex) const;

  std::string dir_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> tmp_counter_{0};
};

}  // namespace sweep
}  // namespace macaron

#endif  // MACARON_SRC_SWEEP_RESULT_STORE_H_
