#include "storage/buffer_pool.h"

#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/wal.h"

namespace fuzzymatch {

namespace {

// Registry mirrors of the per-pool hit/miss/eviction members: the pool
// accessors serve tests scoped to one pool; the registry aggregates all
// pools for the process-wide cache-hit-rate account.
obs::Counter& HitsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("bufferpool.hits");
  return *c;
}

obs::Counter& MissesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("bufferpool.misses");
  return *c;
}

obs::Counter& EvictionsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("bufferpool.evictions");
  return *c;
}

}  // namespace

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_), page_id_(other.page_id_) {
  other.pool_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    other.pool_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

// The lock-free frame accesses below are safe because a frame's byte
// buffer is allocated once (under mu_) and never moves, and the pin taken
// by Fetch/New keeps the frame from being evicted or re-pointed while any
// guard is alive.

Page PageGuard::page() {
  FM_CHECK(valid());
  return Page(pool_->frames_[frame_].data.get());
}

const Page PageGuard::page() const {
  FM_CHECK(valid());
  return Page(pool_->frames_[frame_].data.get());
}

char* PageGuard::data() {
  FM_CHECK(valid());
  return pool_->frames_[frame_].data.get();
}

void PageGuard::MarkDirty() {
  FM_CHECK(valid());
  pool_->MarkDirty(frame_);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(Pager* pager, size_t capacity) : pager_(pager) {
  FM_CHECK_GE(capacity, size_t{1});
  frames_.resize(capacity);
  // Register all pool counters up front so a metrics dump shows them at
  // zero rather than omitting them when a workload never hits a path.
  HitsCounter();
  MissesCounter();
  EvictionsCounter();
}

Result<size_t> BufferPool::GrabFrame() {
  if (next_unused_frame_ < frames_.size()) {
    const size_t f = next_unused_frame_++;
    frames_[f].data = std::make_unique<char[]>(kPageSize);
    return f;
  }
  if (lru_.empty()) {
    return Status::ResourceExhausted(
        "buffer pool: all frames pinned; increase capacity");
  }
  const size_t victim = lru_.front();
  if (frames_[victim].dirty) {
    // Fires before any pool state changes so an injected error leaves the
    // victim evictable by the caller's retry.
    FM_FAIL_POINT("bufferpool.evict_dirty");
  }
  lru_.pop_front();
  Frame& fr = frames_[victim];
  fr.in_lru = false;
  FM_CHECK_EQ(fr.pin_count, 0u);
  if (fr.dirty) {
    FM_RETURN_IF_ERROR(FlushFrameWithUndo(victim));
  }
  page_to_frame_.erase(fr.page_id);
  fr.page_id = kInvalidPageId;
  evictions_.fetch_add(1, std::memory_order_relaxed);
  EvictionsCounter().Increment();
  return victim;
}

Result<PageGuard> BufferPool::Fetch(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_to_frame_.find(id);
  if (it != page_to_frame_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    HitsCounter().Increment();
    Frame& fr = frames_[it->second];
    if (fr.in_lru) {
      lru_.erase(fr.lru_pos);
      fr.in_lru = false;
    }
    ++fr.pin_count;
    CaptureBeforeImage(id, fr.data.get());
    return PageGuard(this, it->second, id);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  MissesCounter().Increment();
  obs::AddTraceCount("bufferpool_misses", 1);
  FM_ASSIGN_OR_RETURN(const size_t f, GrabFrame());
  Frame& fr = frames_[f];
  FM_RETURN_IF_ERROR(pager_->ReadPage(id, fr.data.get()));
  fr.page_id = id;
  fr.pin_count = 1;
  fr.dirty = false;
  fr.txn_dirty = false;
  page_to_frame_[id] = f;
  CaptureBeforeImage(id, fr.data.get());
  return PageGuard(this, f, id);
}

Result<PageGuard> BufferPool::New() {
  std::lock_guard<std::mutex> lock(mu_);
  FM_ASSIGN_OR_RETURN(const PageId id, pager_->AllocatePage());
  FM_ASSIGN_OR_RETURN(const size_t f, GrabFrame());
  Frame& fr = frames_[f];
  std::memset(fr.data.get(), 0, kPageSize);
  fr.page_id = id;
  fr.pin_count = 1;
  fr.dirty = true;
  fr.txn_dirty = txn_active_;
  page_to_frame_[id] = f;
  // The before-image of a page born inside the transaction is all zeros
  // (the pager extended the file with a zero page).
  CaptureBeforeImage(id, fr.data.get());
  if (txn_active_) {
    txn_dirtied_.insert(id);
  } else {
    unlogged_writes_ = true;
  }
  return PageGuard(this, f, id);
}

void BufferPool::Unpin(size_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& fr = frames_[frame];
  FM_CHECK_GT(fr.pin_count, 0u);
  if (--fr.pin_count == 0) {
    lru_.push_back(frame);
    fr.lru_pos = std::prev(lru_.end());
    fr.in_lru = true;
  }
}

void BufferPool::MarkDirty(size_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& fr = frames_[frame];
  fr.dirty = true;
  if (txn_active_) {
    fr.txn_dirty = true;
    txn_dirtied_.insert(fr.page_id);
  } else {
    unlogged_writes_ = true;
  }
}

Status BufferPool::FlushFrame(size_t frame) {
  Frame& fr = frames_[frame];
  FM_RETURN_IF_ERROR(pager_->WritePage(fr.page_id, fr.data.get()));
  fr.dirty = false;
  return Status::OK();
}

Status BufferPool::FlushFrameWithUndo(size_t frame) {
  Frame& fr = frames_[frame];
  if (fr.txn_dirty && wal_ != nullptr) {
    // Steal: the page leaves the pool ahead of its commit record, so its
    // before-image must be durable in the log first — recovery undoes the
    // write unless a commit supersedes it.
    const auto it = txn_before_.find(fr.page_id);
    if (it != txn_before_.end()) {
      FM_RETURN_IF_ERROR(wal_->AppendUndo(fr.page_id, it->second.get()));
    } else {
      FM_LOG(Warning) << "page " << fr.page_id
                      << " stolen without a before-image";
    }
    fr.txn_dirty = false;
  }
  return FlushFrame(frame);
}

void BufferPool::SetWal(Wal* wal) { wal_ = wal; }

void BufferPool::BeginWalTxn() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr) {
    return;
  }
  txn_active_ = true;
}

bool BufferPool::wal_txn_active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return txn_active_;
}

void BufferPool::CaptureBeforeImage(PageId id, const char* data) {
  if (!txn_active_) {
    return;
  }
  auto& slot = txn_before_[id];
  if (slot == nullptr) {
    slot = std::make_unique<char[]>(kPageSize);
    std::memcpy(slot.get(), data, kPageSize);
  }
}

Status BufferPool::CommitWalTxn() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!txn_active_) {
    return Status::OK();
  }
  FM_FAIL_POINT("wal.commit");
  // After-images: resident frames carry the latest bytes; stolen pages
  // were flushed to the main file, which therefore does.
  std::vector<std::unique_ptr<char[]>> stolen;
  std::vector<WalPageRedo> batch;
  batch.reserve(txn_dirtied_.size());
  for (const PageId id : txn_dirtied_) {
    const char* image = nullptr;
    const auto it = page_to_frame_.find(id);
    if (it != page_to_frame_.end()) {
      image = frames_[it->second].data.get();
    } else {
      stolen.push_back(std::make_unique<char[]>(kPageSize));
      FM_RETURN_IF_ERROR(pager_->ReadPage(id, stolen.back().get()));
      image = stolen.back().get();
    }
    WalPageRedo redo{id, image};
    const auto before = txn_before_.find(id);
    if (before != txn_before_.end() && !txn_retry_) {
      redo.ranges = DiffPage(before->second.get(), image);
      if (redo.ranges.empty()) {
        continue;  // dirtied, but no byte changed
      }
      if (unlogged_writes_) {
        redo.ranges.clear();  // the whole image
      }
    }
    batch.push_back(std::move(redo));
  }
  if (!batch.empty()) {
    // Blocks until the batch plus its commit record are durable. On error
    // the transaction stays open: nothing gets acknowledged, and a later
    // commit (or the caller's retry) re-logs the same pages whole.
    const Status committed = wal_->CommitPages(batch).status();
    if (!committed.ok()) {
      txn_retry_ = true;
      return committed;
    }
  }
  for (const PageId id : txn_dirtied_) {
    const auto it = page_to_frame_.find(id);
    if (it != page_to_frame_.end()) {
      frames_[it->second].txn_dirty = false;
    }
  }
  txn_before_.clear();
  txn_dirtied_.clear();
  txn_active_ = false;
  txn_retry_ = false;
  return Status::OK();
}

void BufferPool::MarkCheckpointed() {
  std::lock_guard<std::mutex> lock(mu_);
  unlogged_writes_ = false;
}

Status BufferPool::FlushAll() {
  FM_FAIL_POINT("bufferpool.flush_all");
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t f = 0; f < next_unused_frame_; ++f) {
    if (frames_[f].page_id != kInvalidPageId && frames_[f].dirty) {
      FM_RETURN_IF_ERROR(FlushFrameWithUndo(f));
    }
  }
  return pager_->Sync();
}

Status BufferPool::FlushAllExcept(PageId skip) {
  FM_FAIL_POINT("bufferpool.flush_all");
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t f = 0; f < next_unused_frame_; ++f) {
    if (frames_[f].page_id != kInvalidPageId && frames_[f].page_id != skip &&
        frames_[f].dirty) {
      FM_RETURN_IF_ERROR(FlushFrameWithUndo(f));
    }
  }
  return pager_->Sync();
}

Status BufferPool::FlushPage(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = page_to_frame_.find(id);
  if (it == page_to_frame_.end() || !frames_[it->second].dirty) {
    return Status::OK();
  }
  FM_RETURN_IF_ERROR(FlushFrameWithUndo(it->second));
  return pager_->Sync();
}

}  // namespace fuzzymatch
