// Unit tests for the write-ahead log: on-disk framing, byte-range redo,
// torn-tail discard, identity guard, in-order undo/redo, the buffer
// pool's full-image rule, group commit under concurrency, and the
// fsync-mode knob. Crash-schedule coverage (kill at every failpoint,
// recover, compare against the acknowledged prefix) lives in
// tests/fault/wal_recovery_test.cc.

#include "storage/wal.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace fuzzymatch {
namespace {

constexpr uint64_t kDbId = 0x00c0ffee12345678ull;

// Frame sizes implied by the record layout (crc + len + payload).
constexpr size_t kImageFrame = 8 + 1 + 8 + 4 + kPageSize;
constexpr size_t kCommitFrame = 8 + 1 + 8 + 4;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/fm_wal_" + name + "_" +
         std::to_string(::getpid()) + ".wal";
}

std::vector<char> MakeImage(char fill) {
  std::vector<char> image(kPageSize, fill);
  Page(image.data()).Init(PageType::kHeap);
  // Distinguishable payload beyond the header.
  for (size_t i = Page::kHeaderSize; i < kPageSize; ++i) {
    image[i] = static_cast<char>(fill + (i % 7));
  }
  return image;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::unique_ptr<Wal> OpenWal(uint64_t start_lsn = 1,
                               WalOptions options = WalOptions{}) {
    auto wal = Wal::Open(path_, kDbId, start_lsn, options);
    EXPECT_TRUE(wal.ok()) << wal.status();
    return std::move(*wal);
  }

  std::string path_;
};

TEST(WalFsyncModeTest, ParseAndNameRoundTrip) {
  for (const auto mode : {WalFsyncMode::kGroup, WalFsyncMode::kNever}) {
    auto parsed = ParseWalFsyncMode(WalFsyncModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_TRUE(ParseWalFsyncMode("always").status().IsInvalidArgument());
  EXPECT_TRUE(ParseWalFsyncMode("sometimes").status().IsInvalidArgument());
  EXPECT_TRUE(ParseWalFsyncMode("").status().IsInvalidArgument());
}

TEST_F(WalTest, OpenWritesHeaderOnly) {
  auto wal = OpenWal(/*start_lsn=*/5);
  EXPECT_EQ(std::filesystem::file_size(path_), Wal::kHeaderSize);
  EXPECT_EQ(wal->next_lsn(), 5u);
  const std::string header = ReadFileBytes(path_);
  uint32_t magic, version;
  uint64_t db_id, start_lsn;
  std::memcpy(&magic, header.data(), 4);
  std::memcpy(&version, header.data() + 4, 4);
  std::memcpy(&db_id, header.data() + 8, 8);
  std::memcpy(&start_lsn, header.data() + 16, 8);
  EXPECT_EQ(magic, Wal::kMagic);
  EXPECT_EQ(version, Wal::kVersion);
  EXPECT_EQ(db_id, kDbId);
  EXPECT_EQ(start_lsn, 5u);
}

TEST_F(WalTest, CommitReplayRoundTrip) {
  auto img0 = MakeImage('a');
  auto img1 = MakeImage('b');
  {
    auto wal = OpenWal();
    auto lsn = wal->CommitPages({{0, img0.data()}, {1, img1.data()}});
    ASSERT_TRUE(lsn.ok()) << lsn.status();
    EXPECT_EQ(*lsn, 3u);  // two image LSNs, then the commit record
    EXPECT_EQ(wal->flushed_lsn(), 3u);
  }

  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, /*checkpoint_lsn=*/1, pager.get());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->log_present);
  EXPECT_TRUE(stats->identity_match);
  EXPECT_EQ(stats->records_scanned, 3u);
  EXPECT_EQ(stats->commits_applied, 1u);
  EXPECT_EQ(stats->pages_applied, 2u);
  EXPECT_EQ(stats->undo_applied, 0u);
  EXPECT_EQ(stats->torn_bytes, 0u);
  EXPECT_EQ(stats->next_lsn, 4u);

  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(0, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img0.data(), kPageSize), 0);
  ASSERT_TRUE(pager->ReadPage(1, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img1.data(), kPageSize), 0);
}

TEST_F(WalTest, MissingLogIsEmptyStats) {
  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->log_present);
  EXPECT_EQ(stats->next_lsn, 0u);
}

TEST_F(WalTest, StaleIdentityIsIgnored) {
  auto img = MakeImage('s');
  {
    auto wal = OpenWal();
    ASSERT_TRUE(wal->CommitPages({{0, img.data()}}).ok());
  }
  auto pager = Pager::OpenInMemory();
  // Wrong database id: the log belongs to another history.
  auto stats = Wal::Replay(path_, kDbId + 1, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->log_present);
  EXPECT_FALSE(stats->identity_match);
  EXPECT_EQ(stats->pages_applied, 0u);
  EXPECT_EQ(pager->page_count(), 0u);
  // Right id, wrong checkpoint LSN: the main file moved on without us.
  stats = Wal::Replay(path_, kDbId, /*checkpoint_lsn=*/9, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->log_present);
  EXPECT_FALSE(stats->identity_match);
  EXPECT_EQ(pager->page_count(), 0u);
}

TEST_F(WalTest, TornCommitRecordDropsTheTransaction) {
  auto img0 = MakeImage('a');
  auto img1 = MakeImage('b');
  {
    auto wal = OpenWal();
    ASSERT_TRUE(wal->CommitPages({{0, img0.data()}}).ok());
    ASSERT_TRUE(wal->CommitPages({{0, img1.data()}}).ok());
  }
  // Cut txn2's commit record in half: its image is intact on disk but
  // the transaction never became durable.
  const size_t txn1_end = Wal::kHeaderSize + kImageFrame + kCommitFrame;
  const size_t cut = txn1_end + kImageFrame + kCommitFrame / 2;
  std::filesystem::resize_file(path_, cut);

  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->commits_applied, 1u);
  EXPECT_EQ(stats->pages_applied, 1u);
  EXPECT_GT(stats->torn_bytes, 0u);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(0, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img0.data(), kPageSize), 0)
      << "uncommitted after-image must not be applied";
}

TEST_F(WalTest, TornImageDropsTheTail) {
  auto img0 = MakeImage('a');
  auto img1 = MakeImage('b');
  {
    auto wal = OpenWal();
    ASSERT_TRUE(wal->CommitPages({{0, img0.data()}}).ok());
    ASSERT_TRUE(wal->CommitPages({{0, img1.data()}}).ok());
  }
  const size_t txn1_end = Wal::kHeaderSize + kImageFrame + kCommitFrame;
  std::filesystem::resize_file(path_, txn1_end + kImageFrame / 3);

  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->commits_applied, 1u);
  EXPECT_EQ(stats->torn_bytes, kImageFrame / 3);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(0, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img0.data(), kPageSize), 0);
}

TEST_F(WalTest, CorruptRecordDiscardsEverythingAfterIt) {
  auto img0 = MakeImage('a');
  auto img1 = MakeImage('b');
  auto img2 = MakeImage('c');
  {
    auto wal = OpenWal();
    ASSERT_TRUE(wal->CommitPages({{0, img0.data()}}).ok());
    ASSERT_TRUE(wal->CommitPages({{0, img1.data()}}).ok());
    ASSERT_TRUE(wal->CommitPages({{0, img2.data()}}).ok());
  }
  // Flip one byte inside txn2's page image: its CRC no longer matches,
  // so txn2 AND the (physically intact) txn3 behind it are discarded —
  // the log's committed prefix ends at the corruption.
  const size_t txn1_end = Wal::kHeaderSize + kImageFrame + kCommitFrame;
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(txn1_end + 100));
    const char x = '\xee';
    f.write(&x, 1);
  }
  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->commits_applied, 1u);
  EXPECT_GT(stats->torn_bytes, 0u);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(0, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img0.data(), kPageSize), 0);
}

TEST_F(WalTest, CommittedImageSupersedesEarlierUndo) {
  auto before = MakeImage('u');
  auto after = MakeImage('v');
  {
    auto wal = OpenWal();
    // The steal order: undo image durable first, then the transaction
    // commits the page's after-image.
    ASSERT_TRUE(wal->AppendUndo(0, before.data()).ok());
    ASSERT_TRUE(wal->CommitPages({{0, after.data()}}).ok());
  }
  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->pages_applied, 1u);
  // Replay runs in log order: the undo image lands, then the committed
  // image overwrites it.
  EXPECT_EQ(stats->undo_applied, 1u);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(0, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), after.data(), kPageSize), 0);
}

TEST_F(WalTest, UncommittedStealIsRolledBack) {
  auto committed = MakeImage('v');
  auto before = MakeImage('u');
  {
    auto wal = OpenWal();
    ASSERT_TRUE(wal->CommitPages({{0, committed.data()}}).ok());
    // A later transaction dirties page 0 and gets stolen (before-image
    // logged, page written to the main file), then the crash comes
    // before its commit: replay must restore the before-image.
    ASSERT_TRUE(wal->AppendUndo(0, before.data()).ok());
  }
  auto pager = Pager::OpenInMemory();
  // Simulate the steal having reached the main file.
  ASSERT_TRUE(pager->EnsureCapacity(0).ok());
  auto dirty = MakeImage('x');
  ASSERT_TRUE(pager->WritePage(0, dirty.data()).ok());

  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->pages_applied, 1u);
  EXPECT_EQ(stats->undo_applied, 1u);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(0, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), before.data(), kPageSize), 0)
      << "uncommitted steal must be rolled back to its before-image";
}

TEST_F(WalTest, ReplayLeavesTheLogUntouchedAndIsIdempotent) {
  auto img = MakeImage('r');
  {
    auto wal = OpenWal();
    ASSERT_TRUE(wal->CommitPages({{1, img.data()}}).ok());
  }
  const std::string log_before = ReadFileBytes(path_);
  auto pager = Pager::OpenInMemory();
  ASSERT_TRUE(Wal::Replay(path_, kDbId, 1, pager.get()).ok());
  ASSERT_TRUE(Wal::Replay(path_, kDbId, 1, pager.get()).ok());
  EXPECT_EQ(ReadFileBytes(path_), log_before);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(1, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img.data(), kPageSize), 0);
}

TEST_F(WalTest, TruncateResetsToEmptyLog) {
  auto img = MakeImage('t');
  auto wal = OpenWal();
  ASSERT_TRUE(wal->CommitPages({{0, img.data()}}).ok());
  EXPECT_GT(std::filesystem::file_size(path_), Wal::kHeaderSize);
  ASSERT_TRUE(wal->Truncate(/*start_lsn=*/17).ok());
  EXPECT_EQ(std::filesystem::file_size(path_), Wal::kHeaderSize);
  EXPECT_EQ(wal->next_lsn(), 17u);
  // The truncated log replays as empty at the new checkpoint LSN.
  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 17, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->identity_match);
  EXPECT_EQ(stats->records_scanned, 0u);
  // And a pre-truncation checkpoint LSN no longer matches.
  stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->identity_match);
}

TEST_F(WalTest, FsyncModeControlsSyncsPerCommit) {
  auto& fsyncs = *obs::MetricsRegistry::Global().GetCounter("wal.fsyncs");
  auto img = MakeImage('f');
  {
    auto wal = OpenWal(1, WalOptions{WalFsyncMode::kGroup});
    const uint64_t before = fsyncs.value();
    ASSERT_TRUE(wal->CommitPages({{0, img.data()}}).ok());
    EXPECT_GT(fsyncs.value(), before);
  }
  std::filesystem::remove(path_);
  {
    auto wal = OpenWal(1, WalOptions{WalFsyncMode::kNever});
    const uint64_t before = fsyncs.value();
    ASSERT_TRUE(wal->CommitPages({{0, img.data()}}).ok());
    EXPECT_EQ(fsyncs.value(), before);
    // The shutdown drain fsyncs even in kNever mode.
    ASSERT_TRUE(wal->Sync().ok());
    EXPECT_GT(fsyncs.value(), before);
  }
}

TEST_F(WalTest, GroupCommitUnderConcurrency) {
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 4;
  auto wal = OpenWal(1, WalOptions{WalFsyncMode::kGroup});

  std::vector<std::vector<char>> images;
  for (int i = 0; i < kThreads; ++i) {
    images.push_back(MakeImage(static_cast<char>('A' + i)));
  }
  std::vector<std::vector<uint64_t>> lsns(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        auto lsn = wal->CommitPages(
            {{static_cast<PageId>(t), images[t].data()}});
        ASSERT_TRUE(lsn.ok()) << lsn.status();
        lsns[t].push_back(*lsn);
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every commit got a distinct LSN, all durable by the time it returned.
  std::set<uint64_t> all;
  uint64_t max_lsn = 0;
  for (const auto& per_thread : lsns) {
    ASSERT_EQ(per_thread.size(), static_cast<size_t>(kCommitsPerThread));
    EXPECT_TRUE(std::is_sorted(per_thread.begin(), per_thread.end()));
    for (const uint64_t lsn : per_thread) {
      EXPECT_TRUE(all.insert(lsn).second) << "duplicate commit LSN " << lsn;
      max_lsn = std::max(max_lsn, lsn);
    }
  }
  EXPECT_GE(wal->flushed_lsn(), max_lsn);

  // The log replays cleanly: every commit record landed whole.
  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->commits_applied,
            static_cast<uint64_t>(kThreads * kCommitsPerThread));
  EXPECT_EQ(stats->torn_bytes, 0u);
  EXPECT_EQ(stats->pages_applied, static_cast<uint64_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    std::vector<char> got(kPageSize);
    ASSERT_TRUE(pager->ReadPage(static_cast<PageId>(t), got.data()).ok());
    // Header LSNs differ between replays of the same page; compare the
    // payload beyond the header.
    EXPECT_EQ(std::memcmp(got.data() + Page::kHeaderSize,
                          images[t].data() + Page::kHeaderSize,
                          kPageSize - Page::kHeaderSize),
              0);
  }
}

TEST(WalDiffTest, RangesCoverExactlyTheChangedBytes) {
  const std::vector<char> before = MakeImage('d');
  EXPECT_TRUE(DiffPage(before.data(), before.data()).empty());

  std::vector<char> after = before;
  after[0] ^= 1;                                    // first byte
  after[17] ^= 1;                                   // mid-word
  after[20] ^= 1;                                   // 2 bytes on: merged
  std::memset(after.data() + 4000, 'q', 37);        // a run across words
  after[kPageSize - 1] ^= 1;                        // last byte
  const std::vector<WalRange> ranges = DiffPage(before.data(), after.data());
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges[0].offset, 0u);
  EXPECT_EQ(ranges[0].length, 1u);
  EXPECT_EQ(ranges[1].offset, 17u);
  EXPECT_EQ(ranges[1].length, 4u);
  EXPECT_EQ(ranges[3].offset, kPageSize - 1);
  EXPECT_EQ(ranges[3].length, 1u);
  // Copying the ranges of `after` onto `before` rebuilds `after`.
  std::vector<char> rebuilt = before;
  size_t end = 0;
  for (const WalRange& r : ranges) {
    EXPECT_GE(r.offset, end) << "ranges must ascend without overlap";
    std::memcpy(rebuilt.data() + r.offset, after.data() + r.offset, r.length);
    end = r.offset + r.length;
  }
  EXPECT_EQ(rebuilt, after);
}

TEST_F(WalTest, RangesReplayOntoATornPageTwice) {
  const std::vector<char> old_page = MakeImage('o');
  std::vector<char> new_page = old_page;
  for (const size_t i : {100, 101, 2000, 5000, 8000}) new_page[i] ^= 0x5a;
  std::memset(new_page.data() + 3000, 'z', 300);
  auto& bytes = *obs::MetricsRegistry::Global().GetCounter("wal.bytes_written");
  const uint64_t bytes_before = bytes.value();
  {
    auto wal = OpenWal();
    ASSERT_TRUE(wal->CommitPages({{3, new_page.data(),
                                   DiffPage(old_page.data(), new_page.data())}})
                    .ok());
  }
  EXPECT_LT(bytes.value() - bytes_before, kImageFrame / 8)
      << "a few changed bytes must not log the whole page";

  // The main file holds a torn write of the committed version: its first
  // half landed, the rest is still the old page.
  std::vector<char> torn = old_page;
  std::memcpy(torn.data(), new_page.data(), kPageSize / 2);
  auto pager = Pager::OpenInMemory();
  ASSERT_TRUE(pager->EnsureCapacity(3).ok());
  ASSERT_TRUE(pager->WritePage(3, torn.data()).ok());
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("replay pass " + std::to_string(pass));
    auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->commits_applied, 1u);
    EXPECT_EQ(stats->pages_applied, 1u);
    std::vector<char> got(kPageSize);
    ASSERT_TRUE(pager->ReadPage(3, got.data()).ok());
    EXPECT_EQ(got, new_page);
  }
}

TEST_F(WalTest, RangesNotSmallerThanThePageAreLoggedWhole) {
  const std::vector<char> zeros(kPageSize, '\0');
  const std::vector<char> ones(kPageSize, '\xff');
  auto& bytes = *obs::MetricsRegistry::Global().GetCounter("wal.bytes_written");
  const uint64_t bytes_before = bytes.value();
  {
    auto wal = OpenWal();
    ASSERT_TRUE(
        wal->CommitPages({{0, ones.data(), DiffPage(zeros.data(), ones.data())}})
            .ok());
  }
  EXPECT_EQ(bytes.value() - bytes_before, kImageFrame + kCommitFrame);
  auto pager = Pager::OpenInMemory();
  ASSERT_TRUE(Wal::Replay(path_, kDbId, 1, pager.get()).ok());
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(0, got.data()).ok());
  EXPECT_EQ(got, ones);
}

// CRC-32 computed bit by bit, independently of the log's table.
uint32_t ReferenceCrc32(const std::string& data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST_F(WalTest, VersionOneLogStillReplays) {
  // A log in the version 1 format (whole images only), framed by hand.
  const auto put = [](std::string* out, auto v) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto frame = [&](std::string* log, uint8_t type, uint64_t lsn,
                         PageId id, const std::vector<char>* image) {
    std::string payload(1, static_cast<char>(type));
    put(&payload, lsn);
    put(&payload, id);
    if (image != nullptr) payload.append(image->data(), image->size());
    put(log, ReferenceCrc32(payload));
    put(log, static_cast<uint32_t>(payload.size()));
    log->append(payload);
  };
  const std::vector<char> img = MakeImage('1');
  std::string log;
  put(&log, Wal::kMagic);
  put(&log, uint32_t{1});
  put(&log, kDbId);
  put(&log, uint64_t{1});
  frame(&log, Wal::kRecPageImage, 1, 2, &img);
  frame(&log, Wal::kRecCommit, 2, 1, nullptr);
  std::ofstream(path_, std::ios::binary) << log;

  auto pager = Pager::OpenInMemory();
  auto stats = Wal::Replay(path_, kDbId, 1, pager.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->identity_match);
  EXPECT_EQ(stats->commits_applied, 1u);
  EXPECT_EQ(stats->torn_bytes, 0u);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(pager->ReadPage(2, got.data()).ok());
  EXPECT_EQ(got, img);
}

TEST_F(WalTest, PageWrittenOutsideATransactionIsLoggedWhole) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 8);
  auto wal = OpenWal();
  pool.SetWal(wal.get());
  auto& bytes = *obs::MetricsRegistry::Global().GetCounter("wal.bytes_written");
  PageId id = kInvalidPageId;
  {
    auto guard = pool.New();
    ASSERT_TRUE(guard.ok());
    id = guard->page_id();
    guard->page().Init(PageType::kHeap);
    guard->MarkDirty();
  }
  // The checkpoint: every page durable in the main file.
  ASSERT_TRUE(pool.FlushAll().ok());
  pool.MarkCheckpointed();
  std::vector<char> expected(kPageSize);
  ASSERT_TRUE(pager->ReadPage(id, expected.data()).ok());
  const std::vector<char> checkpoint = expected;

  const auto write = [&](size_t offset, char value) {
    auto guard = pool.Fetch(id);
    ASSERT_TRUE(guard.ok());
    std::memset(guard->data() + offset, value, 100);
    guard->MarkDirty();
    std::memset(expected.data() + offset, value, 100);
  };
  // A transaction alone logs ranges.
  pool.BeginWalTxn();
  write(1000, 'a');
  uint64_t before = bytes.value();
  ASSERT_TRUE(pool.CommitWalTxn().ok());
  EXPECT_LT(bytes.value() - before, kPageSize);
  // After a write outside any transaction, the next commit logs the page
  // whole: the main file may hold neither version a range would apply to.
  write(3000, 'b');
  pool.BeginWalTxn();
  write(6000, 'c');
  before = bytes.value();
  ASSERT_TRUE(pool.CommitWalTxn().ok());
  EXPECT_GE(bytes.value() - before, kImageFrame);

  auto recovered = Pager::OpenInMemory();
  ASSERT_TRUE(recovered->EnsureCapacity(id).ok());
  ASSERT_TRUE(recovered->WritePage(id, checkpoint.data()).ok());
  auto stats = Wal::Replay(path_, kDbId, 1, recovered.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->commits_applied, 2u);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(recovered->ReadPage(id, got.data()).ok());
  EXPECT_EQ(got, expected);
}

TEST_F(WalTest, RetryAfterAFailedCommitLogsPagesWhole) {
  if (!fault::kEnabled) {
    GTEST_SKIP() << "failpoints compiled out (-DFM_FAILPOINTS=OFF)";
  }
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 8);
  auto wal = OpenWal();
  pool.SetWal(wal.get());
  PageId id = kInvalidPageId;
  {
    auto guard = pool.New();
    ASSERT_TRUE(guard.ok());
    id = guard->page_id();
    guard->page().Init(PageType::kHeap);
    guard->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  pool.MarkCheckpointed();
  std::vector<char> checkpoint(kPageSize);
  ASSERT_TRUE(pager->ReadPage(id, checkpoint.data()).ok());

  const auto write = [&](char value) {
    auto guard = pool.Fetch(id);
    ASSERT_TRUE(guard.ok());
    std::memset(guard->data() + 2000, value, 50);
    guard->MarkDirty();
  };
  // The op's commit fails at the log write: its records stay queued in
  // the log. The caller undoes the op in memory and commits the residue,
  // which matches the before-image again.
  pool.BeginWalTxn();
  write('x');
  fault::FailpointSpec spec;
  spec.action = fault::Action::kError;
  fault::Failpoints::Global().Arm("wal.append", spec);
  EXPECT_FALSE(pool.CommitWalTxn().ok());
  fault::Failpoints::Global().Reset();
  write('\0');
  ASSERT_TRUE(pool.CommitWalTxn().ok());
  wal.reset();

  auto recovered = Pager::OpenInMemory();
  ASSERT_TRUE(recovered->EnsureCapacity(id).ok());
  ASSERT_TRUE(recovered->WritePage(id, checkpoint.data()).ok());
  auto stats = Wal::Replay(path_, kDbId, 1, recovered.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->commits_applied, 2u);
  std::vector<char> got(kPageSize);
  ASSERT_TRUE(recovered->ReadPage(id, got.data()).ok());
  EXPECT_EQ(got, checkpoint) << "the failed attempt's ranges survived";
}

}  // namespace
}  // namespace fuzzymatch
