// Write-ahead log under the pager: the durability substrate for online
// maintenance (IndexTuple/UnindexTuple and their catalog side effects).
//
// The log is a single append-only file next to the database file
// (`<db>.wal`). Records are framed with a CRC and stamped with
// monotonically increasing LSNs; a transaction becomes durable when its redo records plus one
// commit record reach the platter. Group commit batches committers behind
// a single fsync: the first committer to find no flush in flight becomes
// the leader, swaps the append buffer out, writes and fsyncs it while the
// lock is dropped, and wakes every follower whose commit LSN the flush
// covered. Committers that arrive during a flush share the next one.
//
// Record flavors beyond commit:
//  - page image (redo): the whole after-image of a page dirtied by a
//    committed maintenance transaction;
//  - page ranges (redo): the byte ranges of a page that the transaction
//    changed, each as (offset, length, bytes). A range carries absolute
//    bytes, not a delta, so applying it is idempotent;
//  - undo image: the before-image of a transaction-dirty page that the
//    buffer pool must steal (evict to the main file) before its
//    transaction commits.
// Replay applies committed redo records and undo images in log order onto
// each page as the main file holds it. Pages carry no LSN (a torn page
// could not be trusted to report one); in-order application converges
// from any version of the page the file may hold (DESIGN.md 5j).
//
// Identity guard: the log header carries the database id and the
// checkpoint LSN it was truncated at. Replay applies the log only when
// both match the catalog — a stale `.wal` next to a restored database
// file copy is discarded instead of replayed onto the wrong history.
//
// Replay never mutates the log or the log file, so a crash during
// recovery (see the `wal.replay` failpoint) re-runs it from scratch with
// a byte-identical outcome.

#ifndef FUZZYMATCH_STORAGE_WAL_H_
#define FUZZYMATCH_STORAGE_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace fuzzymatch {

/// When the log fsyncs (the `--wal-fsync` server flag).
enum class WalFsyncMode : uint8_t {
  /// Every flush fsyncs; committers that arrive while a flush is in
  /// progress share the next one. The default.
  kGroup = 1,
  /// Writes without fsync — commits can be lost to an OS crash (not a
  /// process crash). For benchmarks and bulk loads only.
  kNever = 2,
};

/// Parses "group" | "never".
Result<WalFsyncMode> ParseWalFsyncMode(std::string_view s);
std::string_view WalFsyncModeName(WalFsyncMode mode);

struct WalOptions {
  WalFsyncMode fsync_mode = WalFsyncMode::kGroup;
};

/// Bytes [offset, offset + length) of a page.
struct WalRange {
  uint16_t offset = 0;
  uint16_t length = 0;
};

/// The ranges where `after` differs from `before` (kPageSize bytes each),
/// ascending and disjoint. Ranges closer than a range header are merged.
std::vector<WalRange> DiffPage(const char* before, const char* after);

/// One page's redo in a commit.
struct WalPageRedo {
  PageId page_id = kInvalidPageId;
  /// The page's after-image, kPageSize bytes.
  const char* image = nullptr;
  /// The ranges of `image` to log (DiffPage against the before-image);
  /// empty logs the whole image.
  std::vector<WalRange> ranges = {};
};

/// One database's write-ahead log. Thread-safe: any number of threads may
/// commit concurrently; group commit serializes the physical I/O.
class Wal {
 public:
  struct ReplayStats {
    /// A log file with a well-formed header existed.
    bool log_present = false;
    /// The header matched the catalog identity (db id + checkpoint LSN);
    /// false means the log was ignored as stale.
    bool identity_match = false;
    uint64_t records_scanned = 0;
    uint64_t commits_applied = 0;
    uint64_t pages_applied = 0;
    uint64_t undo_applied = 0;
    /// Bytes discarded at the tail (torn final write).
    uint64_t torn_bytes = 0;
    /// First unused LSN after the applied prefix; 0 when nothing applied.
    uint64_t next_lsn = 0;
    double seconds = 0.0;
  };

  /// Redoes the committed prefix of the log at `path` onto `pager`, then
  /// restores before-images of uncommitted steals. Applies nothing unless
  /// the header matches (`db_id`, `checkpoint_lsn`). Missing file is not
  /// an error. The caller must Sync() the pager before truncating the log.
  static Result<ReplayStats> Replay(const std::string& path, uint64_t db_id,
                                    uint64_t checkpoint_lsn, Pager* pager);

  /// Opens the log for writing, resetting it to an empty log that starts
  /// at `start_lsn`. Any previous content must already have been consumed
  /// by Replay() and made durable in the main file.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           uint64_t db_id, uint64_t start_lsn,
                                           WalOptions options);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Commits one maintenance transaction: appends one redo record per
  /// page plus a commit record, each with a fresh LSN, and blocks until
  /// the batch is durable (per the fsync mode). A page whose ranges would
  /// not be smaller than the page is logged as its whole image. Returns
  /// the commit LSN.
  Result<uint64_t> CommitPages(const std::vector<WalPageRedo>& pages);

  /// Appends a before-image record and blocks until it is durable. Must
  /// be called before a transaction-dirty page is written to the main
  /// file ahead of its commit (buffer-pool steal).
  Status AppendUndo(PageId id, const char* image);

  /// Final group commit: flushes everything appended and fsyncs
  /// regardless of the fsync mode. The graceful-shutdown drain.
  Status Sync();

  /// Resets the log to empty at `start_lsn` (checkpoint: the main file
  /// now covers everything the log held). The caller must have no commit
  /// in flight.
  Status Truncate(uint64_t start_lsn);

  uint64_t next_lsn() const;
  uint64_t flushed_lsn() const;
  const std::string& path() const { return path_; }

  /// On-disk framing constants, shared with tests. Version 2 added page
  /// ranges; replay reads version 1 logs too.
  static constexpr uint32_t kMagic = 0x4c574d46;  // "FMWL"
  static constexpr uint32_t kVersion = 2;
  static constexpr size_t kHeaderSize = 24;  // magic, version, db_id, lsn
  static constexpr uint8_t kRecPageImage = 1;
  static constexpr uint8_t kRecUndoImage = 2;
  static constexpr uint8_t kRecCommit = 3;
  static constexpr uint8_t kRecPageRanges = 4;

 private:
  Wal() = default;

  /// Appends one framed record of `type` to the in-memory buffer: the
  /// given ranges of `image` for kRecPageRanges, all of it for the image
  /// types. Caller holds mu_.
  void AppendRecordLocked_(uint8_t type, uint64_t lsn, PageId page_id,
                           const char* image,
                           const std::vector<WalRange>* ranges);

  /// Blocks until `lsn` is durable, becoming the flush leader when no
  /// flush is in flight. Caller holds `lock`.
  Status WaitDurable_(std::unique_lock<std::mutex>& lock, uint64_t lsn,
                      bool force_fsync);

  /// The physical write+fsync of `data` at `offset`. No lock held.
  Status WriteAndSync_(const std::string& data, uint64_t offset,
                       bool do_fsync);

  int fd_ = -1;
  std::string path_;
  uint64_t db_id_ = 0;
  WalOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::string buf_;             // appended, not yet flushed
  uint64_t next_lsn_ = 1;       // next LSN to assign
  uint64_t appended_lsn_ = 0;   // last LSN appended to buf_ (or flushed)
  uint64_t flushed_lsn_ = 0;    // last LSN durable on the platter
  uint64_t file_size_ = 0;      // logical end of the log file
  size_t pending_commits_ = 0;  // commit records sitting in buf_
  bool flushing_ = false;       // a leader is writing outside the lock
};

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_STORAGE_WAL_H_
