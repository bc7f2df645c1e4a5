#include "src/osc/osc.h"

#include <limits>

#include "src/common/check.h"
#include "src/obs/metrics.h"

namespace macaron {

namespace {

// GC a closed block once dead bytes reach this fraction of its bytes.
constexpr double kGcDeadFraction = 0.5;

}  // namespace

ObjectStorageCache::ObjectStorageCache(const PackingConfig& config)
    : config_(config),
      order_(MakeEvictionCache(config.policy, std::numeric_limits<uint64_t>::max() / 2)) {
  MACARON_CHECK(config.block_bytes > 0);
  MACARON_CHECK(config.max_objects_per_block > 0);
}

bool ObjectStorageCache::LookupPrehashed(ObjectId id, uint64_t h) {
  const auto it = objects_.find(id);
  if (it == objects_.end() || !it->second.live) {
    return false;
  }
  order_->GetPrehashed(id, h);  // touch per policy
  ++ops_.gets;   // byte-range fetch from the containing block
  return true;
}

bool ObjectStorageCache::Contains(ObjectId id) const {
  const auto it = objects_.find(id);
  return it != objects_.end() && it->second.live;
}

void ObjectStorageCache::AdmitInternal(ObjectId id, uint64_t h, uint64_t size,
                                       bool promote_lru) {
  // Place into the open packing block.
  if (!config_.packing_enabled) {
    // One object per block: write immediately.
    const uint64_t block_id = next_block_++;
    BlockMeta& block = blocks_[block_id];
    block.open = false;
    block.bytes = size;
    block.objects = 1;
    block.members.push_back(id);
    objects_[id] = ObjectMeta{block_id, size, true};
    ++ops_.puts;
    if (m_block_flushes_ != nullptr) {
      m_block_flushes_->Inc();
    }
    if (promote_lru) {
      order_->PutPrehashed(id, h, size);
      live_bytes_ += size;
    }
    return;
  }
  if (open_block_ == 0) {
    open_block_ = next_block_++;
    blocks_[open_block_].open = true;
  }
  BlockMeta& block = blocks_[open_block_];
  block.members.push_back(id);
  block.bytes += size;
  ++block.objects;
  objects_[id] = ObjectMeta{open_block_, size, true};
  if (promote_lru) {
    order_->PutPrehashed(id, h, size);
    live_bytes_ += size;
  }
  if (block.objects >= config_.max_objects_per_block || block.bytes >= config_.block_bytes) {
    FlushOpenBlock();
  }
}

void ObjectStorageCache::AdmitPrehashed(ObjectId id, uint64_t h, uint64_t size) {
  const auto it = objects_.find(id);
  if (it != objects_.end() && it->second.live) {
    order_->GetPrehashed(id, h);  // immutable data: refresh recency only
    return;
  }
  // A dead prior copy (Evicted then re-fetched) stays garbage in its old
  // block; the new copy goes into the open block.
  if (m_admits_ != nullptr) {
    m_admits_->Inc();
  }
  AdmitInternal(id, h, size, /*promote_lru=*/true);
}

void ObjectStorageCache::DeletePrehashed(ObjectId id, uint64_t h) {
  const auto it = objects_.find(id);
  if (it == objects_.end() || !it->second.live) {
    return;
  }
  order_->ErasePrehashed(id, h);
  live_bytes_ -= it->second.size;
  if (m_deletes_ != nullptr) {
    m_deletes_->Inc();
  }
  MarkDead(id);
}

void ObjectStorageCache::MarkDead(ObjectId id) {
  ObjectMeta& meta = objects_.at(id);
  MACARON_CHECK(meta.live);
  meta.live = false;
  garbage_bytes_ += meta.size;
  const auto bit = blocks_.find(meta.block);
  MACARON_CHECK(bit != blocks_.end());
  bit->second.dead_bytes += meta.size;
  ++bit->second.dead_objects;
  MaybeScheduleGc(meta.block);
}

void ObjectStorageCache::MaybeScheduleGc(uint64_t block_id) {
  const auto it = blocks_.find(block_id);
  if (it == blocks_.end() || it->second.open || it->second.bytes == 0) {
    return;
  }
  const double dead_fraction =
      static_cast<double>(it->second.dead_bytes) / static_cast<double>(it->second.bytes);
  if (dead_fraction >= kGcDeadFraction) {
    gc_list_.insert(block_id);
  }
}

void ObjectStorageCache::FlushOpenBlock() {
  if (open_block_ == 0) {
    return;
  }
  const uint64_t block_id = open_block_;
  BlockMeta& block = blocks_.at(block_id);
  open_block_ = 0;
  if (block.objects == 0) {
    blocks_.erase(block_id);
    return;
  }
  block.open = false;
  ++ops_.puts;
  if (m_block_flushes_ != nullptr) {
    m_block_flushes_->Inc();
  }
  MaybeScheduleGc(block_id);  // members may already have died pre-flush
}

void ObjectStorageCache::EvictToCapacity(uint64_t target_bytes) {
  if (live_bytes_ > target_bytes) {
    // Let the policy itself choose the victims (a temporary resize), so the
    // OSC evicts exactly what the policy's mini-cache model predicts, then
    // return the ordering structure to its unbounded lazy state.
    std::vector<ObjectId> victims;
    order_->set_evict_callback(
        [&victims](ObjectId id, uint64_t size) {
          (void)size;
          victims.push_back(id);
        });
    order_->Resize(target_bytes);
    order_->Resize(std::numeric_limits<uint64_t>::max() / 2);
    order_->set_evict_callback(nullptr);
    if (m_evictions_ != nullptr) {
      m_evictions_->Inc(victims.size());
    }
    for (ObjectId id : victims) {
      const ObjectMeta& meta = objects_.at(id);
      live_bytes_ -= meta.size;
      MarkDead(id);
      if (evict_observer_) {
        evict_observer_(id);
      }
    }
  }
  RunGc();
}

void ObjectStorageCache::RunGc() {
  // Rewrites may flush new blocks and, in principle, schedule further GC;
  // loop until the list drains.
  while (!gc_list_.empty()) {
    std::unordered_set<uint64_t> batch;
    batch.swap(gc_list_);
    for (uint64_t block_id : batch) {
      const auto it = blocks_.find(block_id);
      if (it == blocks_.end() || it->second.open) {
        continue;
      }
      ++ops_.gc_block_reads;
      if (m_gc_blocks_ != nullptr) {
        m_gc_blocks_->Inc();
        m_gc_reclaimed_bytes_->Inc(it->second.dead_bytes);
      }
      garbage_bytes_ -= it->second.dead_bytes;
      std::vector<ObjectId> members = std::move(it->second.members);
      blocks_.erase(it);
      for (ObjectId id : members) {
        const auto oit = objects_.find(id);
        if (oit == objects_.end()) {
          continue;
        }
        if (oit->second.block != block_id) {
          continue;  // re-admitted into a newer block
        }
        if (oit->second.live) {
          // Survivor: repack into the open block without touching recency
          // (hash unused when promote_lru is false).
          AdmitInternal(id, 0, oit->second.size, /*promote_lru=*/false);
        } else {
          objects_.erase(oit);
        }
      }
    }
  }
}

std::vector<ObjectStorageCache::BlockDebug> ObjectStorageCache::DebugBlocks() const {
  std::vector<BlockDebug> out;
  out.reserve(blocks_.size());
  for (const auto& [id, block] : blocks_) {
    out.push_back(BlockDebug{block.bytes, block.dead_bytes, block.objects, block.dead_objects,
                             block.open});
  }
  return out;
}

void ObjectStorageCache::RegisterMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    m_admits_ = nullptr;
    m_deletes_ = nullptr;
    m_evictions_ = nullptr;
    m_block_flushes_ = nullptr;
    m_gc_blocks_ = nullptr;
    m_gc_reclaimed_bytes_ = nullptr;
    return;
  }
  m_admits_ = registry->counter("osc", "admits");
  m_deletes_ = registry->counter("osc", "deletes");
  m_evictions_ = registry->counter("osc", "evictions");
  m_block_flushes_ = registry->counter("osc", "block_flushes");
  m_gc_blocks_ = registry->counter("osc", "gc_blocks");
  m_gc_reclaimed_bytes_ = registry->counter("osc", "gc_reclaimed_bytes");
}

ObjectStorageCache::OpCounts ObjectStorageCache::TakeOps() {
  const OpCounts out = ops_;
  ops_ = OpCounts{};
  return out;
}

}  // namespace macaron
