// BufferPool: a fixed-capacity LRU cache of page frames over a Pager.
//
// Callers access pages through RAII PageGuards that pin the frame for the
// guard's lifetime.
//
// Thread safety (the shared-read contract): all public operations are
// safe to call from multiple threads concurrently. One internal mutex
// guards the frame table, the LRU list, pin counts, and the page->frame
// map; page *contents* are read through PageGuards without any lock — a
// pinned frame can neither be evicted nor re-pointed at another page, and
// the frame's byte buffer is allocated once and never moves. This is
// exactly what the fuzzy-match serving workload needs: the reference
// relation and the ETI are immutable after build, so queries are pure
// readers and never conflict on page bytes. Writers (index build,
// incremental ETI maintenance) are NOT internally serialized against each
// other or against readers of the pages they mutate; run them exclusively
// (build before serving starts, or behind an external write lock).
//
// The critical section covers pager I/O on a miss, so concurrent misses
// serialize. With a pool sized to the working set (the serving setup)
// misses vanish after warmup and the lock hold time is a hash lookup
// plus a list splice.

#ifndef FUZZYMATCH_STORAGE_BUFFER_POOL_H_
#define FUZZYMATCH_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace fuzzymatch {

class BufferPool;
class Wal;

/// Pins one page frame while alive; movable, not copyable. A PageGuard
/// must stay on the thread that created it or be handed off with external
/// synchronization (it is a capability, not a synchronized object).
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;
  ~PageGuard();

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  /// True if this guard holds a page.
  bool valid() const { return pool_ != nullptr; }

  /// Id of the pinned page.
  PageId page_id() const { return page_id_; }

  /// Typed view over the pinned frame.
  Page page();
  const Page page() const;

  /// Raw frame bytes.
  char* data();

  /// Marks the frame dirty so it is written back before eviction.
  void MarkDirty();

  /// Unpins early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, size_t frame, PageId page_id)
      : pool_(pool), frame_(frame), page_id_(page_id) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId page_id_ = kInvalidPageId;
};

/// LRU page cache. Evicts only unpinned frames; dirty frames are written
/// back on eviction and on FlushAll(). Safe for concurrent use; see the
/// file comment for the shared-read contract.
class BufferPool {
 public:
  /// `capacity` is the number of resident frames (>= 1).
  BufferPool(Pager* pager, size_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from the pager on a miss.
  Result<PageGuard> Fetch(PageId id);

  /// Allocates a fresh page in the pager, pins it, and formats nothing —
  /// the caller is expected to Init() it. The frame starts dirty.
  Result<PageGuard> New();

  /// Writes all dirty frames back to the pager.
  Status FlushAll();

  /// FlushAll, skipping page `skip` (checkpoint write ordering: data
  /// pages reach the platter before the catalog page is rewritten).
  Status FlushAllExcept(PageId skip);

  /// Flushes one page if it is resident and dirty, then syncs.
  Status FlushPage(PageId id);

  /// Attaches the write-ahead log maintenance transactions commit
  /// through. Call once, before the first BeginWalTxn().
  void SetWal(Wal* wal);

  /// Starts (or joins) a maintenance transaction: pages fetched from here
  /// on get a before-image captured on first touch, and dirtied pages are
  /// logged as a batch by CommitWalTxn(). No-op without a WAL attached.
  void BeginWalTxn();

  /// Commits the active maintenance transaction: logs every page that
  /// changed since BeginWalTxn() plus a commit record to the WAL and
  /// blocks until durable. A page is logged as the byte ranges that differ
  /// from its before-image; as its whole image when it has none, or when
  /// the store was written outside a transaction since the last
  /// checkpoint (the main file may then hold neither the before-image nor
  /// a later version of it). On error the transaction stays open (nothing
  /// was acknowledged) and a later commit retries.
  Status CommitWalTxn();

  /// Records that a checkpoint made every page durable in the main file,
  /// so byte ranges again apply to what the file holds. Called by
  /// Database::Checkpoint once it has flushed everything.
  void MarkCheckpointed();

  /// True while a maintenance transaction is open.
  bool wal_txn_active() const;

  /// Cache statistics (for tests and the resource-requirements bench).
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return frames_.size(); }

  Pager* pager() { return pager_; }

 private:
  friend class PageGuard;

  struct Frame {
    std::unique_ptr<char[]> data;
    PageId page_id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    // Dirtied by the open maintenance transaction and not yet committed
    // to the WAL. Evicting such a frame is a steal: its before-image goes
    // to the WAL first.
    bool txn_dirty = false;
    // Position in lru_ when unpinned and resident.
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
  };

  /// Finds a frame to (re)use: a never-used frame or the LRU unpinned one.
  /// Caller must hold mu_.
  Result<size_t> GrabFrame();
  void Unpin(size_t frame);
  void MarkDirty(size_t frame);
  /// Caller must hold mu_.
  Status FlushFrame(size_t frame);
  /// FlushFrame preceded by an undo-record append when the frame is
  /// transaction-dirty (the steal path). Caller must hold mu_.
  Status FlushFrameWithUndo(size_t frame);
  /// Captures page `id`'s before-image on first touch within the open
  /// transaction. Caller must hold mu_; `data` is the current image.
  void CaptureBeforeImage(PageId id, const char* data);

  Pager* pager_;
  Wal* wal_ = nullptr;
  mutable std::mutex mu_;  // guards frames_ metadata, page_to_frame_,
                           // lru_, and the txn_* state
  std::vector<Frame> frames_;
  size_t next_unused_frame_ = 0;
  std::unordered_map<PageId, size_t> page_to_frame_;
  std::list<size_t> lru_;  // front = least recently used
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};

  // Maintenance-transaction state (all under mu_). Dirtied pages are a
  // sorted set so the commit batch — and thus LSN assignment — is
  // deterministic, which the recovery-idempotence test leans on.
  bool txn_active_ = false;
  std::unordered_map<PageId, std::unique_ptr<char[]>> txn_before_;
  std::set<PageId> txn_dirtied_;
  // A page was dirtied outside a transaction since the last checkpoint.
  bool unlogged_writes_ = true;
  // A commit of the open transaction failed after appending to the WAL.
  // Its records stay queued there and may still reach the log, so the
  // retry logs every dirtied page whole: ranges diffed against the same
  // before-images would not undo what the failed attempt's ranges set.
  bool txn_retry_ = false;
};

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_STORAGE_BUFFER_POOL_H_
