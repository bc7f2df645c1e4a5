// Object Storage Cache (OSC) manager (§4.2, §6.1, Fig 6).
//
// The OSC caches objects in cloud object storage. Because object-storage
// writes cost 12.5x reads, small objects are packed into blocks (16 MB /
// up to 40 objects by default) before being written; reads use byte-range
// fetches, so a cache hit costs one GET regardless of packing. Eviction is
// lazy: the manager marks items Evicted in metadata (off the request path)
// and garbage-collects blocks once at least half their bytes are dead,
// rewriting the survivors into fresh blocks. Billed capacity is live bytes
// plus the garbage that packing leaves behind.

#ifndef MACARON_SRC_OSC_OSC_H_
#define MACARON_SRC_OSC_OSC_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cache/eviction_policy.h"
#include "src/common/hash.h"
#include "src/trace/request.h"

namespace macaron {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

struct PackingConfig {
  uint64_t block_bytes = 16ull * 1000 * 1000;
  uint32_t max_objects_per_block = 40;
  // Replacement policy ordering lazy eviction (LRU by default, §4.2).
  EvictionPolicyKind policy = EvictionPolicyKind::kLru;
  // Disable packing entirely (one PUT per object) for the §7.4 ablation.
  bool packing_enabled = true;
};

class ObjectStorageCache {
 public:
  explicit ObjectStorageCache(const PackingConfig& config);

  // --- Request path ---
  //
  // The Prehashed variants take h = Mix64(id) from a caller that already
  // hashed the request (the engines hash once at ingest); the plain forms
  // hash internally. `h` feeds the replacement-order index only — metadata
  // lives in std::unordered_map and is unaffected.

  // True if `id` is Active; touches it in the replacement order. Counts one
  // GET.
  bool Lookup(ObjectId id) { return LookupPrehashed(id, Mix64(id)); }
  bool LookupPrehashed(ObjectId id, uint64_t h);
  // Probe without promotion or op accounting.
  bool Contains(ObjectId id) const;
  // Admits (or re-admits) an object: appended to the open packing block,
  // which flushes (one PUT) when full.
  void Admit(ObjectId id, uint64_t size) { AdmitPrehashed(id, Mix64(id), size); }
  void AdmitPrehashed(ObjectId id, uint64_t h, uint64_t size);
  // Marks `id` Deleted and updates GC bookkeeping.
  void Delete(ObjectId id) { DeletePrehashed(id, Mix64(id)); }
  void DeletePrehashed(ObjectId id, uint64_t h);
  // Hints the CPU to pull `h`'s replacement-order index lines; the engines'
  // batch loops call this for an upcoming request while processing the
  // current one. Advisory only (the unordered_map metadata is not covered —
  // its buckets aren't addressable without hashing `id` again).
  void PrefetchPrehashed(uint64_t h) const { order_->PrefetchPrehashed(h); }

  // --- Maintenance (off the request path) ---

  // Flushes a partially filled open block (timer-driven in the prototype).
  void FlushOpenBlock();
  // Lazy eviction: walks the replacement order from the cold end, marking
  // items Evicted until live bytes fit `target_bytes`, then collects
  // garbage.
  void EvictToCapacity(uint64_t target_bytes);
  // Rewrites every block whose dead fraction reached the threshold.
  void RunGc();

  // --- Accounting ---

  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t garbage_bytes() const { return garbage_bytes_; }
  // Billed bytes: everything resident in object storage.
  uint64_t stored_bytes() const { return live_bytes_ + garbage_bytes_; }
  size_t num_live_objects() const { return order_->num_entries(); }
  size_t num_blocks() const { return blocks_.size(); }

  struct OpCounts {
    uint64_t puts = 0;            // block flush writes
    uint64_t gets = 0;            // byte-range reads serving hits
    uint64_t gc_block_reads = 0;  // whole-block reads during GC
  };
  // Returns counters accumulated since the previous call and resets them.
  OpCounts TakeOps();
  // Counters accumulated since the previous TakeOps (conservation checks).
  const OpCounts& pending_ops() const { return ops_; }

  // Introspection for invariant checks (tests, debugging): per-block byte
  // and deadness counters, and the number of blocks awaiting GC. A dead
  // re-fetched object legitimately appears as dead bytes in two blocks (the
  // stale copy and the re-admitted one) until GC rewrites them.
  struct BlockDebug {
    uint64_t bytes = 0;
    uint64_t dead_bytes = 0;
    uint32_t objects = 0;
    uint32_t dead_objects = 0;
    bool open = false;
  };
  std::vector<BlockDebug> DebugBlocks() const;
  size_t gc_pending_blocks() const { return gc_list_.size(); }

  // Hottest-first iteration over live objects (used for cache priming).
  void ForEachMruToLru(const std::function<bool(ObjectId, uint64_t)>& fn) const {
    order_->ForEachHotOrder(fn);
  }

  const PackingConfig& config() const { return config_; }

  // Attaches packing/GC counters ("osc" component); nullptr (the default)
  // detaches, leaving a null-check per site.
  void RegisterMetrics(obs::MetricsRegistry* registry);

  // Observer invoked once per object evicted by EvictToCapacity (lazy
  // capacity eviction), before GC runs. The engines use it to invalidate
  // in-flight fill entries for evicted objects (inflight.h): a fill whose
  // target was evicted must not coalesce later requests. Deletes are not
  // reported (the caller initiated those itself); GC rewrites never touch
  // live objects. nullptr (the default) disables.
  void set_evict_observer(std::function<void(ObjectId)> observer) {
    evict_observer_ = std::move(observer);
  }

 private:
  struct ObjectMeta {
    uint64_t block = 0;
    uint64_t size = 0;
    bool live = false;  // false = Evicted or Deleted (garbage until GC)
  };

  struct BlockMeta {
    uint64_t bytes = 0;
    uint64_t dead_bytes = 0;
    uint32_t objects = 0;
    uint32_t dead_objects = 0;
    bool open = false;
    std::vector<ObjectId> members;
  };

  // `h` is consumed only when promote_lru is true (GC repack passes 0).
  void AdmitInternal(ObjectId id, uint64_t h, uint64_t size, bool promote_lru);
  void MarkDead(ObjectId id);
  void MaybeScheduleGc(uint64_t block_id);

  PackingConfig config_;
  std::unordered_map<ObjectId, ObjectMeta> objects_;
  std::unordered_map<uint64_t, BlockMeta> blocks_;
  std::unordered_set<uint64_t> gc_list_;
  std::unique_ptr<EvictionCache> order_;  // replacement ordering (never evicts itself)
  uint64_t open_block_ = 0;
  uint64_t next_block_ = 1;
  uint64_t live_bytes_ = 0;
  uint64_t garbage_bytes_ = 0;
  OpCounts ops_;
  std::function<void(ObjectId)> evict_observer_;
  obs::Counter* m_admits_ = nullptr;
  obs::Counter* m_deletes_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_block_flushes_ = nullptr;
  obs::Counter* m_gc_blocks_ = nullptr;
  obs::Counter* m_gc_reclaimed_bytes_ = nullptr;
};

}  // namespace macaron

#endif  // MACARON_SRC_OSC_OSC_H_
