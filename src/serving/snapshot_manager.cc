#include "serving/snapshot_manager.h"

#include <utility>
#include <vector>

namespace gpm::serving {

SnapshotManager::SnapshotManager(std::shared_ptr<const Graph> initial,
                                 size_t max_readers)
    : max_readers_(max_readers == 0 ? 1 : max_readers),
      slots_(std::make_unique<Slot[]>(max_readers == 0 ? 1 : max_readers)) {
  assert(initial != nullptr);
  head_owner_ = std::make_unique<VersionNode>();
  head_owner_->graph = std::move(initial);
  head_owner_->epoch = 1;
  head_.store(head_owner_.get(), std::memory_order_seq_cst);
}

SnapshotManager::~SnapshotManager() = default;

SnapshotManager::Reader SnapshotManager::RegisterReader() {
  for (size_t i = 0; i < max_readers_; ++i) {
    bool expected = false;
    if (slots_[i].registered.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      slots_[i].epoch.store(kQuiescent, std::memory_order_seq_cst);
      return Reader(this, &slots_[i]);
    }
  }
  return Reader();  // table full
}

SnapshotManager::Pin SnapshotManager::Reader::PinSnapshot() {
  if (slot_ == nullptr) return Pin();
  assert(slot_->epoch.load(std::memory_order_relaxed) == kQuiescent &&
         "one live Pin per Reader");
  // Announce one epoch below the one read: a Publish may have advanced
  // the epoch to e without yet swapping in version e, so the head loaded
  // next is version e - 1 or newer. Then tighten the announcement to the
  // version actually held, so reclamation is never held back by the
  // conservative first guess (see the file comment's ordering argument).
  const uint64_t e = manager_->epoch_.load(std::memory_order_seq_cst);
  slot_->epoch.store(e - 1, std::memory_order_seq_cst);
  const VersionNode* node = manager_->head_.load(std::memory_order_seq_cst);
  slot_->epoch.store(node->epoch, std::memory_order_seq_cst);
  return Pin(slot_, node);
}

void SnapshotManager::Publish(std::shared_ptr<const Graph> next) {
  assert(next != nullptr);
  std::vector<std::unique_ptr<VersionNode>> drained;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    auto node = std::make_unique<VersionNode>();
    node->graph = std::move(next);
    node->epoch = epoch_.load(std::memory_order_relaxed) + 1;
    // Epoch first, then the head: a reader never holds a version newer
    // than the epoch it can read (see the ordering contract).
    epoch_.store(node->epoch, std::memory_order_seq_cst);
    head_.store(node.get(), std::memory_order_seq_cst);
    head_owner_->retire_epoch = node->epoch;
    retired_.push_back(std::move(head_owner_));
    head_owner_ = std::move(node);
    published_.fetch_add(1, std::memory_order_relaxed);
    DrainLocked(&drained);
  }
  // `drained` destroys its snapshots here, after the unlock.
}

size_t SnapshotManager::TryReclaim() {
  std::vector<std::unique_ptr<VersionNode>> drained;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    DrainLocked(&drained);
  }
  return drained.size();
}

void SnapshotManager::DrainLocked(
    std::vector<std::unique_ptr<VersionNode>>* drained) {
  const uint64_t floor = OldestAnnounced();
  // retired_ is in retire-epoch order, so the drained prefix is exactly
  // what is freeable.
  while (!retired_.empty() && retired_.front()->retire_epoch <= floor) {
    drained->push_back(std::move(retired_.front()));
    retired_.pop_front();
  }
  reclaimed_.fetch_add(drained->size(), std::memory_order_relaxed);
}

uint64_t SnapshotManager::OldestAnnounced() const {
  uint64_t oldest = kQuiescent;
  for (size_t i = 0; i < max_readers_; ++i) {
    const uint64_t e = slots_[i].epoch.load(std::memory_order_seq_cst);
    if (e < oldest) oldest = e;
  }
  return oldest;
}

SnapshotManager::Stats SnapshotManager::stats() const {
  Stats stats;
  stats.epoch = epoch_.load(std::memory_order_seq_cst);
  stats.published = published_.load(std::memory_order_relaxed);
  stats.reclaimed = reclaimed_.load(std::memory_order_relaxed);
  uint64_t oldest = kQuiescent;
  uint64_t pins = 0;
  for (size_t i = 0; i < max_readers_; ++i) {
    const uint64_t e = slots_[i].epoch.load(std::memory_order_seq_cst);
    if (e == kQuiescent) continue;
    ++pins;
    if (e < oldest) oldest = e;
  }
  stats.active_pins = pins;
  stats.oldest_pinned_epoch = oldest == kQuiescent ? stats.epoch : oldest;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    stats.retired_pending = retired_.size();
  }
  return stats;
}

}  // namespace gpm::serving
