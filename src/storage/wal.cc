#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"
#include "fault/failpoint.h"
#include "fault/faulty_env.h"
#include "obs/metrics.h"

namespace fuzzymatch {

namespace {

obs::Counter& AppendsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.appends");
  return *c;
}

obs::Counter& CommitsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.commits");
  return *c;
}

obs::Counter& FsyncsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.fsyncs");
  return *c;
}

obs::Counter& BytesWrittenCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.bytes_written");
  return *c;
}

obs::Counter& UndoRecordsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.undo_records");
  return *c;
}

obs::Counter& TruncatesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.truncates");
  return *c;
}

obs::Counter& ReplayRecordsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.replay_records");
  return *c;
}

obs::Counter& ReplayPagesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.replay_pages");
  return *c;
}

obs::Counter& ReplayUndoCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.replay_undo");
  return *c;
}

obs::Counter& TornTailBytesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.torn_tail_bytes");
  return *c;
}

obs::Gauge& ReplaySecondsGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("wal.replay_seconds");
  return *g;
}

obs::Histogram& GroupSizeHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "wal.group_commit_size", obs::HistogramOptions{1.0, 2.0, 10});
  return *h;
}

void TouchWalMetrics() {
  AppendsCounter();
  CommitsCounter();
  FsyncsCounter();
  BytesWrittenCounter();
  UndoRecordsCounter();
  TruncatesCounter();
  ReplayRecordsCounter();
  ReplayPagesCounter();
  ReplayUndoCounter();
  TornTailBytesCounter();
  ReplaySecondsGauge();
  GroupSizeHistogram();
}

// CRC-32 (reflected, polynomial 0xEDB88320) over the record payload.
uint32_t Crc32(const char* data, size_t len) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ static_cast<uint8_t>(data[i])) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void PutU16(std::string* out, uint16_t v) {
  out->append(reinterpret_cast<const char*>(&v), 2);
}

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}

uint16_t ReadU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t ReadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Record payload sizes: type(1) + lsn(8) + page id(4) + body. A ranges
// body is a sequence of offset(2) + length(2) + bytes, smaller than a page.
constexpr size_t kCommitPayloadSize = 1 + 8 + 4;
constexpr size_t kImagePayloadSize = kCommitPayloadSize + kPageSize;
constexpr size_t kRangeHeaderSize = 4;
constexpr size_t kFrameOverhead = 8;  // crc(4) + len(4)

// Whether `body` is a well-formed, non-empty ranges body.
bool ValidRanges(const char* body, size_t len) {
  if (len == 0) return false;
  size_t pos = 0;
  while (pos < len) {
    if (len - pos < kRangeHeaderSize) return false;
    const size_t offset = ReadU16(body + pos);
    const size_t length = ReadU16(body + pos + 2);
    pos += kRangeHeaderSize;
    if (length == 0 || offset + length > kPageSize || len - pos < length) {
      return false;
    }
    pos += length;
  }
  return true;
}

// Copies a validated ranges body onto `page`.
void ApplyRanges(const char* body, size_t len, char* page) {
  for (size_t pos = 0; pos < len;) {
    const size_t offset = ReadU16(body + pos);
    const size_t length = ReadU16(body + pos + 2);
    pos += kRangeHeaderSize;
    std::memcpy(page + offset, body + pos, length);
    pos += length;
  }
}

std::string EncodeHeader(uint64_t db_id, uint64_t start_lsn) {
  std::string h;
  PutU32(&h, Wal::kMagic);
  PutU32(&h, Wal::kVersion);
  PutU64(&h, db_id);
  PutU64(&h, start_lsn);
  return h;
}

}  // namespace

Result<WalFsyncMode> ParseWalFsyncMode(std::string_view s) {
  if (s == "group") return WalFsyncMode::kGroup;
  if (s == "never") return WalFsyncMode::kNever;
  return Status::InvalidArgument(
      StringPrintf("bad wal fsync mode '%.*s' (group|never)",
                   static_cast<int>(s.size()), s.data()));
}

std::vector<WalRange> DiffPage(const char* before, const char* after) {
  // Word-wise scan for runs of differing words, each trimmed to the
  // exact differing bytes at its ends.
  constexpr size_t kWord = 8;
  std::vector<WalRange> ranges;
  for (size_t w = 0; w < kPageSize;) {
    if (std::memcmp(before + w, after + w, kWord) == 0) {
      w += kWord;
      continue;
    }
    size_t run_end = w + kWord;
    while (run_end < kPageSize &&
           std::memcmp(before + run_end, after + run_end, kWord) != 0) {
      run_end += kWord;
    }
    size_t begin = w;
    while (before[begin] == after[begin]) ++begin;
    size_t end = run_end;
    while (before[end - 1] == after[end - 1]) --end;
    if (!ranges.empty() &&
        begin - (ranges.back().offset + ranges.back().length) <=
            kRangeHeaderSize) {
      ranges.back().length = static_cast<uint16_t>(end - ranges.back().offset);
    } else {
      ranges.push_back(WalRange{static_cast<uint16_t>(begin),
                                static_cast<uint16_t>(end - begin)});
    }
    w = run_end;
  }
  return ranges;
}

std::string_view WalFsyncModeName(WalFsyncMode mode) {
  switch (mode) {
    case WalFsyncMode::kGroup:
      return "group";
    case WalFsyncMode::kNever:
      return "never";
  }
  return "unknown";
}

Wal::~Wal() {
  if (fd_ >= 0) {
    // Best-effort drain; a failure here means the process is crashing
    // anyway and recovery will see exactly the flushed prefix.
    const Status s = Sync();
    if (!s.ok()) {
      FM_LOG(Warning) << "wal drain on close failed: " << s;
    }
    ::close(fd_);
  }
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       uint64_t db_id, uint64_t start_lsn,
                                       WalOptions options) {
  TouchWalMetrics();
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError(
        StringPrintf("open %s: %s", path.c_str(), std::strerror(errno)));
  }
  auto wal = std::unique_ptr<Wal>(new Wal());
  wal->fd_ = fd;
  wal->path_ = path;
  wal->db_id_ = db_id;
  wal->options_ = options;
  FM_RETURN_IF_ERROR(wal->Truncate(start_lsn));
  return wal;
}

uint64_t Wal::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

uint64_t Wal::flushed_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushed_lsn_;
}

void Wal::AppendRecordLocked_(uint8_t type, uint64_t lsn, PageId page_id,
                              const char* image,
                              const std::vector<WalRange>* ranges) {
  // The frame is built in place; crc and len are patched in at the end.
  const size_t frame = buf_.size();
  buf_.append(kFrameOverhead, '\0');
  buf_.push_back(static_cast<char>(type));
  PutU64(&buf_, lsn);
  PutU32(&buf_, page_id);
  if (type == kRecPageRanges) {
    for (const WalRange& r : *ranges) {
      PutU16(&buf_, r.offset);
      PutU16(&buf_, r.length);
      buf_.append(image + r.offset, r.length);
    }
  } else if (type != kRecCommit) {
    buf_.append(image, kPageSize);
  }
  const auto len = static_cast<uint32_t>(buf_.size() - frame - kFrameOverhead);
  const uint32_t crc = Crc32(buf_.data() + frame + kFrameOverhead, len);
  std::memcpy(buf_.data() + frame, &crc, 4);
  std::memcpy(buf_.data() + frame + 4, &len, 4);
  appended_lsn_ = lsn;
  AppendsCounter().Increment();
}

Status Wal::WriteAndSync_(const std::string& data, uint64_t offset,
                          bool do_fsync) {
  FM_FAIL_POINT("wal.append");
  size_t admitted = data.size();
#if FM_FAILPOINTS_ENABLED
  // Simulated power loss. Unlike Pager::Sync, the WAL reports the loss:
  // an op whose commit record never reached the platter must not be
  // acknowledged, so the error has to unwind to the committer.
  admitted = fault::FileFaults::Global().AdmitWrite(data.size());
#endif
  size_t done = 0;
  while (done < admitted) {
    const ssize_t n = ::pwrite(fd_, data.data() + done, admitted - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StringPrintf("wal pwrite: %s", std::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  if (admitted < data.size()) {
    return Status::IOError("wal write lost (simulated crash)");
  }
  BytesWrittenCounter().Increment(data.size());
  if (!do_fsync) {
    return Status::OK();
  }
#if FM_FAILPOINTS_ENABLED
  {
    const Status fp = fault::Failpoints::Global().Hit("wal.fsync");
    const bool sync_lost =
        !fp.ok() || !fault::FileFaults::Global().AdmitSync();
    if (sync_lost) {
      if (fault::FileFaults::Global().crashed()) {
        // Power died at the fsync: the bytes this flush pwrote were
        // still in the page cache and never reached the platter. The
        // log is append-only, so cutting them off models that exactly.
        (void)::ftruncate(fd_, static_cast<off_t>(offset));
      }
      return fp.ok() ? Status::IOError("wal fsync lost (simulated crash)")
                     : fp;
    }
  }
#endif
  if (::fsync(fd_) != 0) {
    return Status::IOError(
        StringPrintf("wal fsync: %s", std::strerror(errno)));
  }
  FsyncsCounter().Increment();
  return Status::OK();
}

Status Wal::WaitDurable_(std::unique_lock<std::mutex>& lock, uint64_t lsn,
                         bool force_fsync) {
  while (flushed_lsn_ < lsn) {
    if (flushing_) {
      cv_.wait(lock);
      continue;
    }
    // Become the leader: take everything appended so far, then write it
    // with the lock dropped so later committers can append meanwhile.
    flushing_ = true;
    std::string batch;
    batch.swap(buf_);
    const uint64_t target = appended_lsn_;
    const uint64_t offset = file_size_;
    const size_t commits = pending_commits_;
    pending_commits_ = 0;
    lock.unlock();
    const bool do_fsync =
        force_fsync || options_.fsync_mode != WalFsyncMode::kNever;
    const Status s = WriteAndSync_(batch, offset, do_fsync);
    lock.lock();
    flushing_ = false;
    if (!s.ok()) {
      // Roll the batch back in front of anything appended meanwhile so a
      // retry rewrites the same offsets; nothing in it was acknowledged.
      buf_.insert(0, batch);
      pending_commits_ += commits;
      cv_.notify_all();
      return s;
    }
    file_size_ = offset + batch.size();
    flushed_lsn_ = target;
    if (commits > 0) {
      GroupSizeHistogram().Observe(static_cast<double>(commits));
    }
    cv_.notify_all();
  }
  return Status::OK();
}

Result<uint64_t> Wal::CommitPages(const std::vector<WalPageRedo>& pages) {
  std::unique_lock<std::mutex> lock(mu_);
  for (const WalPageRedo& page : pages) {
    size_t range_bytes = 0;
    for (const WalRange& r : page.ranges) {
      range_bytes += kRangeHeaderSize + r.length;
    }
    const bool whole = page.ranges.empty() || range_bytes >= kPageSize;
    AppendRecordLocked_(whole ? kRecPageImage : kRecPageRanges, next_lsn_++,
                        page.page_id, page.image, &page.ranges);
  }
  const uint64_t commit_lsn = next_lsn_++;
  AppendRecordLocked_(kRecCommit, commit_lsn,
                      static_cast<PageId>(pages.size()), nullptr, nullptr);
  ++pending_commits_;
  FM_RETURN_IF_ERROR(WaitDurable_(lock, commit_lsn, /*force_fsync=*/false));
  CommitsCounter().Increment();
  return commit_lsn;
}

Status Wal::AppendUndo(PageId id, const char* image) {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t lsn = next_lsn_++;
  AppendRecordLocked_(kRecUndoImage, lsn, id, image, nullptr);
  UndoRecordsCounter().Increment();
  // A steal must be durable in the log before the page hits the main
  // file, whatever the fsync mode — this is the no-force/steal contract.
  return WaitDurable_(lock, lsn, /*force_fsync=*/true);
}

Status Wal::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  FM_RETURN_IF_ERROR(WaitDurable_(lock, appended_lsn_, /*force_fsync=*/true));
  // In kNever mode flushes advance flushed_lsn_ without touching the
  // platter, so WaitDurable_ may have found nothing to do; the drain's
  // promise is an fsync regardless, issued here as an empty flush.
  const uint64_t offset = file_size_;
  lock.unlock();
  return WriteAndSync_(std::string(), offset, /*do_fsync=*/true);
}

Status Wal::Truncate(uint64_t start_lsn) {
  FM_FAIL_POINT("wal.truncate");
  std::unique_lock<std::mutex> lock(mu_);
  // Quiesce any in-flight flush; committed content is now covered by the
  // main file (the caller checkpointed), so losing the rest is fine.
  while (flushing_) {
    cv_.wait(lock);
  }
#if FM_FAILPOINTS_ENABLED
  if (fault::FileFaults::Global().crashed()) {
    return Status::IOError("wal truncate lost (simulated crash)");
  }
#endif
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IOError(
        StringPrintf("wal ftruncate: %s", std::strerror(errno)));
  }
  buf_.clear();
  pending_commits_ = 0;
  file_size_ = 0;
  next_lsn_ = start_lsn;
  appended_lsn_ = start_lsn == 0 ? 0 : start_lsn - 1;
  flushed_lsn_ = appended_lsn_;
  const std::string header = EncodeHeader(db_id_, start_lsn);
  size_t done = 0;
  while (done < header.size()) {
    const ssize_t n = ::pwrite(fd_, header.data() + done,
                               header.size() - done, done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StringPrintf("wal header pwrite: %s", std::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    return Status::IOError(
        StringPrintf("wal header fsync: %s", std::strerror(errno)));
  }
  file_size_ = header.size();
  TruncatesCounter().Increment();
  return Status::OK();
}

Result<Wal::ReplayStats> Wal::Replay(const std::string& path, uint64_t db_id,
                                     uint64_t checkpoint_lsn, Pager* pager) {
  TouchWalMetrics();
  const auto t0 = std::chrono::steady_clock::now();
  ReplayStats stats;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return stats;  // no log: nothing to recover
    }
    return Status::IOError(
        StringPrintf("open %s: %s", path.c_str(), std::strerror(errno)));
  }
  std::string content;
  {
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Status::IOError(
            StringPrintf("read %s: %s", path.c_str(), std::strerror(errno)));
      }
      if (n == 0) break;
      content.append(chunk, static_cast<size_t>(n));
    }
  }
  ::close(fd);

  const uint32_t version =
      content.size() < kHeaderSize ? 0 : ReadU32(content.data() + 4);
  if (content.size() < kHeaderSize || ReadU32(content.data()) != kMagic ||
      (version != 1 && version != kVersion)) {
    if (!content.empty()) {
      FM_LOG(Warning) << "wal " << path << ": malformed header, ignoring";
    }
    return stats;
  }
  stats.log_present = true;
  const uint64_t log_db_id = ReadU64(content.data() + 8);
  const uint64_t log_start_lsn = ReadU64(content.data() + 16);
  if (log_db_id != db_id || log_start_lsn != checkpoint_lsn) {
    FM_LOG(Warning) << "wal " << path << ": stale log (db id or checkpoint "
                    << "lsn mismatch), ignoring";
    return stats;
  }
  stats.identity_match = true;

  // Scan: the committed redo records and the undo images, in log order.
  // A CRC or framing failure is a torn tail — everything from there on
  // was never acknowledged.
  struct Op {
    PageId page_id;
    uint8_t type;
    const char* body;
    uint32_t body_len;
  };
  std::vector<Op> ops;
  std::vector<Op> pending;  // the current transaction's redo records
  uint64_t last_lsn = log_start_lsn == 0 ? 0 : log_start_lsn - 1;
  size_t off = kHeaderSize;
  for (;;) {
    if (off == content.size()) break;
    if (content.size() - off < kFrameOverhead) {
      stats.torn_bytes = content.size() - off;
      break;
    }
    const uint32_t crc = ReadU32(content.data() + off);
    const uint32_t len = ReadU32(content.data() + off + 4);
    if (len < kCommitPayloadSize || len > kImagePayloadSize ||
        content.size() - off - kFrameOverhead < len) {
      stats.torn_bytes = content.size() - off;
      break;
    }
    const char* payload = content.data() + off + kFrameOverhead;
    if (Crc32(payload, len) != crc) {
      stats.torn_bytes = content.size() - off;
      break;
    }
    const uint8_t type = static_cast<uint8_t>(payload[0]);
    const uint64_t lsn = ReadU64(payload + 1);
    const char* body = payload + kCommitPayloadSize;
    const uint32_t body_len = len - kCommitPayloadSize;
    const bool well_formed =
        (type == kRecCommit && body_len == 0) ||
        ((type == kRecPageImage || type == kRecUndoImage) &&
         body_len == kPageSize) ||
        (type == kRecPageRanges && ValidRanges(body, body_len));
    if (lsn <= last_lsn || !well_formed) {
      stats.torn_bytes = content.size() - off;
      break;
    }
    last_lsn = lsn;
    ++stats.records_scanned;
    const PageId page_id = ReadU32(payload + 9);
    switch (type) {
      case kRecPageImage:
      case kRecPageRanges:
        pending.push_back(Op{page_id, type, body, body_len});
        break;
      case kRecUndoImage:
        ops.push_back(Op{page_id, type, body, body_len});
        break;
      case kRecCommit:
        ops.insert(ops.end(), pending.begin(), pending.end());
        pending.clear();
        ++stats.commits_applied;
        break;
    }
    off += kFrameOverhead + len;
  }
  // Records of a transaction whose commit record is missing are not
  // applied; `pending` is dropped here.

  // Apply each page's records in log order onto the page as the main
  // file holds it (zeros past its end), then write the page once.
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    return a.page_id < b.page_id;
  });
  std::vector<char> page(kPageSize);
  for (size_t i = 0; i < ops.size();) {
    const PageId pid = ops[i].page_id;
    if (ops[i].type == kRecPageRanges) {
      if (pid < pager->page_count()) {
        FM_RETURN_IF_ERROR(pager->ReadPage(pid, page.data()));
      } else {
        std::fill(page.begin(), page.end(), '\0');
      }
    }
    bool redone = false;
    for (; i < ops.size() && ops[i].page_id == pid; ++i) {
      const Op& op = ops[i];
      if (op.type == kRecPageRanges) {
        ApplyRanges(op.body, op.body_len, page.data());
      } else {
        std::memcpy(page.data(), op.body, kPageSize);
      }
      if (op.type == kRecUndoImage) {
        ++stats.undo_applied;
      } else {
        redone = true;
      }
    }
    FM_FAIL_POINT("wal.replay");
    FM_RETURN_IF_ERROR(pager->EnsureCapacity(pid));
    FM_RETURN_IF_ERROR(pager->WritePage(pid, page.data()));
    if (redone) {
      ++stats.pages_applied;
    }
  }
  stats.next_lsn = last_lsn + 1;
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ReplayRecordsCounter().Increment(stats.records_scanned);
  ReplayPagesCounter().Increment(stats.pages_applied);
  ReplayUndoCounter().Increment(stats.undo_applied);
  TornTailBytesCounter().Increment(stats.torn_bytes);
  ReplaySecondsGauge().Set(stats.seconds);
  if (stats.commits_applied > 0 || stats.torn_bytes > 0) {
    FM_LOG(Info) << "wal replay: " << stats.commits_applied << " commits, "
                 << stats.pages_applied << " pages, " << stats.undo_applied
                 << " undo images, " << stats.torn_bytes
                 << " torn tail bytes in " << stats.seconds << "s";
  }
  return stats;
}

}  // namespace fuzzymatch
