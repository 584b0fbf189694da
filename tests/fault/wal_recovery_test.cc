// WAL recovery suite: the durability half of DESIGN.md 5j.
//
// The crash-consistency suite (crash_consistency_test.cc) asserts the
// recovered database is *consistent*. With a WAL the contract is
// stronger: zero acknowledged-op loss. This suite kills the process (the
// FileFaults write gate) at every WAL/pager/checkpoint failpoint during
// a maintenance workload, records exactly which operations were
// acknowledged (returned OK) before the lights went out, reopens, and
// asserts the recovered state is EXACTLY the acknowledged prefix:
//
//   - every acknowledged insert is present, fully indexed, and matched;
//   - every acknowledged remove stays removed;
//   - no unacknowledged operation became durable.
//
// Plus the satellite properties: checkpoint write-ordering (data pages
// fsynced before the catalog rewrite), recovery idempotence (a crash
// during replay re-runs it to a byte-identical state), and the orphan
// temp-file / shadow-index sweep at Open().

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/fuzzy_match.h"
#include "fault/failpoint.h"
#include "fault/faulty_env.h"
#include "gen/customer_gen.h"
#include "match/naive_matcher.h"
#include "obs/metrics.h"
#include "storage/database.h"

namespace fuzzymatch {
namespace {

using fault::Action;
using fault::FailpointSpec;
using fault::Failpoints;
using fault::FileFaults;

constexpr size_t kSeedTuples = 120;
constexpr char kStrategy[] = "Q+T_2";

FuzzyMatchConfig TestConfig() {
  FuzzyMatchConfig config;
  config.eti.signature_size = 2;
  config.eti.index_tokens = true;
  return config;
}

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/fm_walrec_" + name + "_" +
         std::to_string(::getpid()) + ".db";
}

void RemoveWithWal(const std::string& path) {
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".wal");
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// One attempted maintenance operation and whether it was acknowledged.
struct OracleOp {
  bool add = false;
  bool acked = false;
  Tid tid = 0;   // acked inserts: assigned tid; removes: target tid
  Row row;       // inserts: the row
};

/// The failpoints whose kill must not lose an acknowledged op. Subset of
/// fault::kWritePathFailpoints: the log itself, the txn commit, the
/// checkpoint pipeline, and the pager writes under both.
const char* const kDurabilityFailpoints[] = {
    "wal.append",            //
    "wal.fsync",             //
    "wal.commit",            //
    "wal.truncate",          //
    "db.checkpoint",         //
    "db.checkpoint_barrier", //
    "pager.write_page",      //
    "pager.sync",            //
    "bufferpool.flush_all",  //
    "bufferpool.evict_dirty" // needs a small pool to fire
};

bool NeedsSmallPool(const std::string& name) {
  return name == "bufferpool.evict_dirty";
}

class WalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::kEnabled) {
      GTEST_SKIP() << "failpoints compiled out (-DFM_FAILPOINTS=OFF)";
    }
    Failpoints::Global().Reset();
    FileFaults::Global().Reset();
  }

  void TearDown() override {
    Failpoints::Global().Reset();
    FileFaults::Global().Reset();
  }

  /// Durable pre-crash state: reference relation + built ETI,
  /// checkpointed. Copied (without its .wal, which a checkpoint leaves
  /// empty anyway) by every kill run.
  static const std::string& SeedDbPath() {
    static const std::string path = [] {
      const std::string p = TempPath("seed");
      RemoveWithWal(p);
      DatabaseOptions options;
      options.path = p;
      auto db = Database::Open(options);
      FM_CHECK(db.ok());
      auto table = (*db)->CreateTable("customers",
                                      CustomerGenerator::CustomerSchema());
      FM_CHECK(table.ok());
      CustomerGenOptions gen_options;
      gen_options.num_tuples = kSeedTuples;
      CustomerGenerator gen(gen_options);
      FM_CHECK(gen.Populate(*table).ok());
      auto matcher =
          FuzzyMatcher::Build(db->get(), "customers", TestConfig());
      FM_CHECK(matcher.ok());
      FM_CHECK((*db)->Checkpoint().ok());
      return p;
    }();
    return path;
  }

  /// Copies the seed into a fresh work pair (no stale .wal).
  static std::string FreshWorkCopy(const std::string& tag) {
    const std::string work = TempPath(tag);
    RemoveWithWal(work);
    std::filesystem::copy_file(SeedDbPath(), work);
    return work;
  }

  /// The maintenance workload: inserts and removes with unique,
  /// recognizable names, a checkpoint in the middle so the checkpoint
  /// and log-truncation failpoints get a chance to fire, then more ops.
  /// Every attempt is recorded with its acknowledgement.
  static std::vector<OracleOp> RunWorkload(Database* db,
                                           FuzzyMatcher* matcher) {
    std::vector<OracleOp> oracle;
    const auto crashed = [] { return FileFaults::Global().crashed(); };

    const auto try_insert = [&](int i) {
      Row row{"walins" + std::to_string(i) + " corporation",
              std::string("seattle"), std::string("wa"),
              std::string("98" + std::to_string(100 + i))};
      OracleOp op;
      op.add = true;
      op.row = row;
      auto tid = matcher->InsertReferenceTuple(row);
      op.acked = tid.ok();
      if (tid.ok()) op.tid = *tid;
      oracle.push_back(std::move(op));
    };
    const auto try_remove = [&](Tid tid) {
      OracleOp op;
      op.tid = tid;
      op.acked = matcher->RemoveReferenceTuple(tid).ok();
      oracle.push_back(std::move(op));
    };

    for (int i = 0; i < 4 && !crashed(); ++i) try_insert(i);
    for (Tid tid = 0; tid < 2 && !crashed(); ++tid) try_remove(tid);
    if (!crashed()) (void)db->Checkpoint();
    for (int i = 4; i < 8 && !crashed(); ++i) try_insert(i);
    if (!crashed()) try_remove(2);
    if (!crashed()) (void)db->Checkpoint();
    return oracle;
  }

  /// Reopens `path` and asserts the recovered state is exactly the
  /// acknowledged prefix of `oracle`. With `strict_unacked` false the
  /// audit only demands atomicity of unacknowledged ops — a torn log
  /// write can physically persist the complete frames of a commit whose
  /// acknowledgement never reached the client (the classic ambiguous
  /// commit), so "absent" is too strong there; "all or nothing" is not.
  void AuditExactPrefix(const std::string& path,
                        const std::vector<OracleOp>& oracle,
                        bool strict_unacked = true) {
    DatabaseOptions options;
    options.path = path;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status();
    auto ref_or = (*db)->GetTable("customers");
    ASSERT_TRUE(ref_or.ok()) << ref_or.status();
    auto matcher = FuzzyMatcher::Open(db->get(), "customers", kStrategy);
    ASSERT_TRUE(matcher.ok()) << matcher.status();

    // The independent oracle: a NaiveMatcher over the recovered relation
    // (full scan, no index) must agree with the ETI on every acked
    // insert — catching a recovery that repaired the index but not the
    // relation, or vice versa.
    NaiveMatcher naive(*ref_or, &(*matcher)->weights(),
                       NaiveMatcher::SimilarityKind::kFms, MatcherOptions{});
    ASSERT_TRUE(naive.Prepare().ok());

    // Surviving tuples, by tid and by name (workload names are unique).
    std::map<Tid, Row> live;
    std::set<std::string> live_names;
    {
      Table::Scanner scanner = (*ref_or)->Scan();
      Tid tid;
      Row row;
      for (;;) {
        auto more = scanner.Next(&tid, &row);
        ASSERT_TRUE(more.ok()) << more.status();
        if (!*more) break;
        if (row[0].has_value()) live_names.insert(*row[0]);
        live[tid] = std::move(row);
      }
    }

    for (size_t i = 0; i < oracle.size(); ++i) {
      const OracleOp& op = oracle[i];
      SCOPED_TRACE("op " + std::to_string(i) + (op.add ? " insert" : " remove")
                   + (op.acked ? " acked" : " unacked"));
      if (op.add && op.acked) {
        // Acknowledged insert: present, identical, and matchable.
        auto it = live.find(op.tid);
        ASSERT_NE(it, live.end()) << "acked insert lost";
        EXPECT_EQ(it->second, op.row);
        auto matches = (*matcher)->FindMatches(op.row);
        ASSERT_TRUE(matches.ok()) << matches.status();
        ASSERT_FALSE(matches->empty()) << "acked insert not matchable";
        bool found = false;
        for (const Match& m : *matches) found |= m.tid == op.tid;
        EXPECT_TRUE(found) << "acked insert missing from its own matches";
        EXPECT_DOUBLE_EQ((*matches)[0].similarity, 1.0);
        auto oracle_matches = naive.FindMatches(op.row);
        ASSERT_TRUE(oracle_matches.ok()) << oracle_matches.status();
        ASSERT_FALSE(oracle_matches->empty());
        EXPECT_EQ((*oracle_matches)[0].tid, op.tid)
            << "NaiveMatcher oracle disagrees with the recovered index";
        EXPECT_DOUBLE_EQ((*oracle_matches)[0].similarity, 1.0);
      } else if (op.add && !op.acked) {
        ASSERT_TRUE(op.row[0].has_value());
        if (strict_unacked) {
          // Unacknowledged insert: must not have become durable.
          EXPECT_EQ(live_names.count(*op.row[0]), 0u)
              << "unacked insert survived the crash";
        } else if (live_names.count(*op.row[0]) != 0) {
          // The torn write persisted this commit anyway. That is legal,
          // but only atomically: the row must be intact and matchable.
          Tid tid = 0;
          bool found_row = false;
          for (const auto& [t, row] : live) {
            if (row[0] == op.row[0]) {
              EXPECT_EQ(row, op.row) << "unacked insert persisted torn";
              tid = t;
              found_row = true;
            }
          }
          ASSERT_TRUE(found_row);
          auto matches = (*matcher)->FindMatches(op.row);
          ASSERT_TRUE(matches.ok()) << matches.status();
          bool indexed = false;
          for (const Match& m : *matches) indexed |= m.tid == tid;
          EXPECT_TRUE(indexed)
              << "unacked insert persisted but is not indexed";
        }
      } else if (!op.add && op.acked) {
        EXPECT_EQ(live.count(op.tid), 0u) << "acked remove resurrected";
      } else if (strict_unacked) {
        // Unacknowledged remove: the seed tuple must still be there.
        EXPECT_EQ(live.count(op.tid), 1u)
            << "unacked remove became durable";
      }
    }
  }

  /// One kill run: arm `name`, run the workload until the gate closes,
  /// tear down like a dying process, reopen, audit.
  void KillAndAudit(const std::string& name, Action action,
                    bool strict_unacked = true) {
    SCOPED_TRACE("failpoint=" + name);
    const std::string work = FreshWorkCopy("work");
    std::vector<OracleOp> oracle;

    Failpoints::Global().Reset();
    FileFaults::Global().Reset();
    {
      DatabaseOptions options;
      options.path = work;
      if (NeedsSmallPool(name)) {
        options.pool_pages = 16;
      }
      auto db = Database::Open(options);
      ASSERT_TRUE(db.ok()) << db.status();
      auto matcher = FuzzyMatcher::Open(db->get(), "customers", kStrategy);
      ASSERT_TRUE(matcher.ok()) << matcher.status();

      FailpointSpec spec;
      spec.action = action;
      Failpoints::Global().Arm(name, spec);
      oracle = RunWorkload(db->get(), matcher->get());
      EXPECT_TRUE(FileFaults::Global().crashed())
          << "workload never reached failpoint " << name;
    }
    FileFaults::Global().Reset();
    Failpoints::Global().DisarmAll();
    AuditExactPrefix(work, oracle, strict_unacked);
    RemoveWithWal(work);
  }
};

TEST_F(WalRecoveryTest, AckedOpsSurviveEveryDurabilityFailpointKill) {
  for (const char* name : kDurabilityFailpoints) {
    KillAndAudit(name, Action::kCrash);
  }
}

TEST_F(WalRecoveryTest, AckedOpsSurviveTornLogWrite) {
  // kCrashTorn tears the next physical write in half before closing the
  // gate: the log grows a torn tail that replay must discard, without
  // losing the acknowledged prefix before it. The first half of the
  // torn flush can contain complete frames — including the commit of
  // the op that got an error back — so unacked ops are audited for
  // atomicity rather than strict absence.
  KillAndAudit("wal.append", Action::kCrashTorn, /*strict_unacked=*/false);
}

TEST_F(WalRecoveryTest, CheckpointBarrierOrdering) {
  // The write-ordering regression test: the barrier failpoint sits
  // between the data-page flush (+fsync) and the catalog rewrite. A kill
  // there leaves the OLD catalog over fully flushed data pages — the
  // window that silently corrupted the store when the catalog was
  // rewritten first. Acked maintenance must survive via the log.
  KillAndAudit("db.checkpoint_barrier", Action::kCrash);
}

TEST_F(WalRecoveryTest, RecoveryIsIdempotentAndByteIdentical) {
  // Build a crashed pair (main file at the last checkpoint, log holding
  // acked commits): kill at the checkpoint entry, so nothing after the
  // seed state reached the main file.
  const std::string crashed = FreshWorkCopy("idem");
  std::vector<OracleOp> oracle;
  {
    DatabaseOptions options;
    options.path = crashed;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status();
    auto matcher = FuzzyMatcher::Open(db->get(), "customers", kStrategy);
    ASSERT_TRUE(matcher.ok());
    FailpointSpec spec;
    spec.action = Action::kCrash;
    Failpoints::Global().Arm("db.checkpoint", spec);
    oracle = RunWorkload(db->get(), matcher->get());
    ASSERT_TRUE(FileFaults::Global().crashed());
  }
  FileFaults::Global().Reset();
  Failpoints::Global().DisarmAll();
  size_t acked = 0;
  for (const OracleOp& op : oracle) acked += op.acked ? 1 : 0;
  ASSERT_GT(acked, 0u) << "workload acked nothing before the kill";

  // Two identical copies of the crashed pair.
  const std::string a = TempPath("idem_a");
  const std::string b = TempPath("idem_b");
  RemoveWithWal(a);
  RemoveWithWal(b);
  std::filesystem::copy_file(crashed, a);
  std::filesystem::copy_file(crashed + ".wal", a + ".wal");
  std::filesystem::copy_file(crashed, b);
  std::filesystem::copy_file(crashed + ".wal", b + ".wal");

  // Copy A: recover in one clean pass.
  {
    DatabaseOptions options;
    options.path = a;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_GT((*db)->replay_stats().commits_applied, 0u);
  }

  // Copy B: crash in the middle of replay, then recover again. Replay
  // never mutates the log, so the second pass starts from scratch.
  {
    FailpointSpec spec;
    spec.action = Action::kCrash;
    spec.fire_on_hit = 2;  // let one page land, then die
    Failpoints::Global().Arm("wal.replay", spec);
    DatabaseOptions options;
    options.path = b;
    auto db = Database::Open(options);
    EXPECT_FALSE(db.ok()) << "open should die mid-replay";
  }
  FileFaults::Global().Reset();
  Failpoints::Global().DisarmAll();
  {
    DatabaseOptions options;
    options.path = b;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_GT((*db)->replay_stats().commits_applied, 0u);
  }

  // Same bytes, both files: replaying the same log once or one-and-a-half
  // times lands in the identical durable state.
  EXPECT_EQ(ReadFileBytes(a), ReadFileBytes(b));
  EXPECT_EQ(ReadFileBytes(a + ".wal"), ReadFileBytes(b + ".wal"));

  // And the state is the acknowledged prefix, as always.
  AuditExactPrefix(a, oracle);
  AuditExactPrefix(b, oracle);
  RemoveWithWal(crashed);
  RemoveWithWal(a);
  RemoveWithWal(b);
}

TEST_F(WalRecoveryTest, DurableDeleteLogsTheBytesItChanged) {
  // A delete rewrites a few hundred bytes on each page it touches; its
  // commit must log those bytes, not every touched page whole.
  const std::string work = FreshWorkCopy("bytes");
  DatabaseOptions options;
  options.path = work;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status();
  auto matcher = FuzzyMatcher::Open(db->get(), "customers", kStrategy);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  auto& registry = obs::MetricsRegistry::Global();
  const auto value = [&](const char* name) {
    return registry.GetCounter(name)->value();
  };
  const uint64_t bytes0 = value("wal.bytes_written");
  const uint64_t records0 = value("wal.appends");
  const uint64_t commits0 = value("wal.commits");
  ASSERT_TRUE((*matcher)->RemoveReferenceTuple(5).ok());
  ASSERT_EQ(value("wal.commits") - commits0, 1u);
  const uint64_t pages = value("wal.appends") - records0 - 1;
  ASSERT_GT(pages, 0u);
  EXPECT_LT(value("wal.bytes_written") - bytes0, pages * kPageSize / 4)
      << pages << " pages committed";
  matcher->reset();
  db->reset();
  RemoveWithWal(work);
}

TEST_F(WalRecoveryTest, FirstStartBuildLogsRangesOnceCheckpointed) {
  // fuzzymatch_server's first start on a fresh --db: load, build, then
  // checkpoint. The load and the build write pages outside the log, so a
  // commit before that checkpoint must log its pages whole; after it, a
  // delete logs only the bytes it changed.
  const std::string path = TempPath("first_start");
  RemoveWithWal(path);
  DatabaseOptions options;
  options.path = path;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status();
  auto table =
      (*db)->CreateTable("customers", CustomerGenerator::CustomerSchema());
  ASSERT_TRUE(table.ok()) << table.status();
  CustomerGenOptions gen_options;
  gen_options.num_tuples = kSeedTuples;
  ASSERT_TRUE(CustomerGenerator(gen_options).Populate(*table).ok());
  auto matcher = FuzzyMatcher::Build(db->get(), "customers", TestConfig());
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  auto& registry = obs::MetricsRegistry::Global();
  const auto value = [&](const char* name) {
    return registry.GetCounter(name)->value();
  };
  // Returns {pages committed, record bytes logged} of one delete.
  const auto remove = [&](Tid tid) {
    const uint64_t bytes0 = value("wal.bytes_written");
    const uint64_t records0 = value("wal.appends");
    EXPECT_TRUE((*matcher)->RemoveReferenceTuple(tid).ok());
    return std::make_pair(value("wal.appends") - records0 - 1,
                          value("wal.bytes_written") - bytes0);
  };
  const auto [whole_pages, whole_bytes] = remove(5);
  ASSERT_GT(whole_pages, 0u);
  EXPECT_GT(whole_bytes, whole_pages * kPageSize)
      << "a commit before the first checkpoint logged ranges";

  ASSERT_TRUE((*db)->Checkpoint().ok());
  const auto [pages, bytes] = remove(6);
  ASSERT_GT(pages, 0u);
  EXPECT_LT(bytes, pages * kPageSize / 4) << pages << " pages committed";
  matcher->reset();
  db->reset();
  RemoveWithWal(path);
}

TEST_F(WalRecoveryTest, OpenSweepsOrphanSpillFilesAndShadowIndexes) {
  const std::string work = FreshWorkCopy("sweep");
  const std::string dir =
      std::filesystem::path(work).parent_path().string();
  // An orphan spill run owned by a pid that cannot exist, and a live one
  // owned by this process (parallel builds must not be swept).
  const std::string dead_spill = dir + "/fm_sort_run_99999999_7_0.tmp";
  const std::string live_spill = dir + "/fm_sort_run_" +
                                 std::to_string(::getpid()) + "_7_0.tmp";
  std::ofstream(dead_spill) << "orphan";
  std::ofstream(live_spill) << "mine";

  // A shadow table + index pair, as left by a rebuild that crashed
  // before its atomic swap.
  const std::string shadow =
      std::string("customers_eti_") + kStrategy + "~rebuild";
  {
    DatabaseOptions options;
    options.path = work;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(
        (*db)->CreateTable(shadow, CustomerGenerator::CustomerSchema()).ok());
    ASSERT_TRUE((*db)->CreateIndex(shadow + "_idx").ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }

  {
    DatabaseOptions options;
    options.path = work;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_TRUE((*db)->GetTable(shadow).status().IsNotFound())
        << "orphan shadow table survived reopen";
    EXPECT_TRUE((*db)->GetIndex(shadow + "_idx").status().IsNotFound())
        << "orphan shadow index survived reopen";
    // The live store still opens as a matcher.
    auto matcher = FuzzyMatcher::Open(db->get(), "customers", kStrategy);
    EXPECT_TRUE(matcher.ok()) << matcher.status();
  }
  EXPECT_FALSE(std::filesystem::exists(dead_spill))
      << "dead-pid spill file survived reopen";
  EXPECT_TRUE(std::filesystem::exists(live_spill))
      << "live-pid spill file was swept";
  std::filesystem::remove(live_spill);
  RemoveWithWal(work);
}

// Durable inserts split B-tree leaves, so their commits log the parent
// internal nodes too. An internal node keeps its leftmost child pointer
// in the page header; the commit must log and keep every byte as written,
// or reads through that pointer fail ("read of unallocated page").
// Needs no failpoints: the crash image is a copy of the files taken while
// the database is still open, which a later reopen replays.
TEST(WalDurableInsertTest, LeafSplitsUnderInternalNodesSurviveReplay) {
  const std::string live = TempPath("splits");
  const std::string image = TempPath("splits_image");
  RemoveWithWal(live);
  RemoveWithWal(image);
  FuzzyMatchConfig config = TestConfig();
  config.matcher.bound_policy = MatcherOptions::BoundPolicy::kConservative;

  // Every original row must still be readable and still match itself.
  std::map<Tid, Row> originals;
  const auto audit = [&](const FuzzyMatcher& matcher) {
    for (const auto& [tid, row] : originals) {
      auto stored = matcher.GetReferenceTuple(tid);
      ASSERT_TRUE(stored.ok()) << "tid " << tid << ": " << stored.status();
      ASSERT_EQ(*stored, row) << "tid " << tid;
      auto matches = matcher.FindMatches(row);
      ASSERT_TRUE(matches.ok()) << "tid " << tid << ": " << matches.status();
      ASSERT_FALSE(matches->empty()) << "tid " << tid;
      EXPECT_DOUBLE_EQ((*matches)[0].similarity, 1.0) << "tid " << tid;
    }
  };

  {
    DatabaseOptions options;
    options.path = live;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status();
    auto table =
        (*db)->CreateTable("customers", CustomerGenerator::CustomerSchema());
    ASSERT_TRUE(table.ok());
    CustomerGenOptions gen_options;
    gen_options.num_tuples = 2000;
    CustomerGenerator gen(gen_options);
    ASSERT_TRUE(gen.Populate(*table).ok());
    auto matcher = FuzzyMatcher::Build(db->get(), "customers", config);
    ASSERT_TRUE(matcher.ok()) << matcher.status();
    ASSERT_TRUE((*db)->Checkpoint().ok());
    Table::Scanner scanner = (*table)->Scan();
    Tid tid;
    Row row;
    for (;;) {
      auto more = scanner.Next(&tid, &row);
      ASSERT_TRUE(more.ok()) << more.status();
      if (!*more) break;
      originals[tid] = row;
    }

    // Fresh names and zip codes bring new q-grams: inserts land in the
    // ETI index and the tid index, splitting leaves under internal nodes.
    for (int i = 0; i < 150; ++i) {
      const Row fresh{"splitins" + std::to_string(i) + " holdings",
                      "newtown" + std::to_string(i), std::string("wa"),
                      std::to_string(97000 + i)};
      auto inserted = (*matcher)->InsertReferenceTuple(fresh);
      ASSERT_TRUE(inserted.ok()) << inserted.status();
    }
    audit(**matcher);

    // Crash image: the main file and the log as they stand, unclosed.
    std::filesystem::copy_file(live, image);
    std::filesystem::copy_file(live + ".wal", image + ".wal");
  }

  DatabaseOptions options;
  options.path = image;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_GT((*db)->replay_stats().commits_applied, 0u);
  auto matcher = FuzzyMatcher::Open(db->get(), "customers", kStrategy, config);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  audit(**matcher);
  matcher->reset();
  db->reset();
  RemoveWithWal(live);
  RemoveWithWal(image);
}

}  // namespace
}  // namespace fuzzymatch
