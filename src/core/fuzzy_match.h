// FuzzyMatcher: the library's public entry point.
//
// Implements the paper's end-to-end operation (Figure 1's template): build
// an Error Tolerant Index over a clean reference relation once, then
// fuzzily match incoming tuples against it online.
//
//   Database db = ...;                       // storage engine
//   Table* customers = ...;                  // clean reference relation
//   FM_ASSIGN_OR_RETURN(auto matcher,
//       FuzzyMatcher::Build(&db, "customers", config));
//   auto matches = matcher->Match(dirty_row);
//   if (!matches->empty() && (*matches)[0].similarity >= 0.8) { ... }

#ifndef FUZZYMATCH_CORE_FUZZY_MATCH_H_
#define FUZZYMATCH_CORE_FUZZY_MATCH_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "eti/eti_builder.h"
#include "match/eti_matcher.h"
#include "match/match_types.h"
#include "storage/database.h"

namespace fuzzymatch {

/// Everything configurable about one fuzzy-match deployment.
struct FuzzyMatchConfig {
  /// Index-construction parameters (q, H, Q+T, stop threshold, seed).
  EtiParams eti;
  /// Query-time parameters (K, threshold c, OSC, fms knobs).
  MatcherOptions matcher;
  /// Token-frequency cache flavour (Section 4.4.1).
  FrequencyCacheKind cache_kind = FrequencyCacheKind::kExact;
  size_t bounded_cache_buckets = 1u << 20;
  /// ETI build resources.
  size_t sort_memory_bytes = 64u << 20;
  /// Spill directory for the build's external sort. Empty derives it from
  /// the database's own directory (then $TMPDIR, then /tmp); see
  /// EtiBuilder::Options::temp_dir.
  std::string temp_dir;
  /// ETI build parallelism (EtiBuilder::Options::build_threads): 1 =
  /// serial, 0 = one worker per hardware thread. Output is byte-identical
  /// for any value.
  int build_threads = 1;
  /// Memory budget of the in-memory ETI read accelerator built over the
  /// persisted index at Build/Open time (DESIGN.md 5d); 0 disables it and
  /// every probe takes the B-tree path.
  size_t accel_memory_bytes = 64u << 20;
};

/// What one online ETI rebuild did (see FuzzyMatcher::RebuildEti).
struct EtiRebuildStats {
  EtiBuildStats build;
  /// Maintenance ops that landed mid-build and were replayed from the
  /// side log onto the shadow index before the swap.
  uint64_t side_ops_replayed = 0;
  double total_seconds = 0;
};

/// A built fuzzy-match operator over one reference relation.
///
/// Thread safety: after Build()/Open() returns, FindMatches and
/// GetReferenceTuple may be called from any number of threads (the
/// storage read path is latched and the matcher's aggregate stats are
/// internally synchronized). InsertReferenceTuple/RemoveReferenceTuple
/// serialize against each other and against RebuildEti internally, but
/// remain writers: do not run them concurrently with queries. RebuildEti
/// itself is safe to run while queries are being served.
class FuzzyMatcher {
 public:
  /// Builds the ETI and weight table for `ref_table_name` inside `db` and
  /// returns a ready matcher. The ETI persists in `db` as a standard
  /// relation + index named after the table and strategy. A config with
  /// `matcher.k == 0` is InvalidArgument (here and on Open).
  ///
  /// The config-less overloads (here and on Open) stand in for a
  /// `config = {}` default argument, which GCC 12 -O2 flags with a
  /// spurious -Wmaybe-uninitialized at every call site.
  static Result<std::unique_ptr<FuzzyMatcher>> Build(
      Database* db, const std::string& ref_table_name,
      FuzzyMatchConfig config);
  static Result<std::unique_ptr<FuzzyMatcher>> Build(
      Database* db, const std::string& ref_table_name);

  /// Re-attaches to an ETI built in a previous session (the paper: "we
  /// can use it for subsequent batches of input tuples if the reference
  /// table does not change"). Only the main-memory token-frequency cache
  /// is rebuilt (one reference scan); the index itself is reused.
  /// `strategy_name` is EtiParams::StrategyName() of the original build;
  /// `config.eti` is ignored (the persisted parameters win).
  static Result<std::unique_ptr<FuzzyMatcher>> Open(
      Database* db, const std::string& ref_table_name,
      const std::string& strategy_name, FuzzyMatchConfig config);
  static Result<std::unique_ptr<FuzzyMatcher>> Open(
      Database* db, const std::string& ref_table_name,
      const std::string& strategy_name);

  /// Incremental maintenance (extension; the paper defers it): inserts a
  /// new clean tuple into the reference relation AND the ETI, so later
  /// queries can match against it immediately. IDF weights are a
  /// main-memory snapshot and drift slightly until the next
  /// Build/Open — acceptable because log-scaled frequencies move slowly.
  /// With a WAL-backed database the operation is a durable transaction:
  /// it returns OK only after the dirtied pages are group-committed to
  /// the log, and a commit failure rolls the in-memory state back so the
  /// served index matches what recovery will reconstruct.
  Result<Tid> InsertReferenceTuple(const Row& row);

  /// Removes a reference tuple from both the relation and the ETI. Same
  /// durability contract as InsertReferenceTuple.
  Status RemoveReferenceTuple(Tid tid);

  /// Online ETI rebuild/compaction (DESIGN.md 5j): builds a fresh ETI
  /// beside the live one while queries keep being served, captures
  /// maintenance that lands mid-build in a side log, replays it onto the
  /// shadow index, re-seeds the read accelerator, and atomically swaps
  /// the new index in — queries are never drained. Maintenance blocks
  /// during the reference scan and briefly around the swap. The old
  /// index is retired from the catalog (in-flight readers finish on it)
  /// and the swap is made durable with a checkpoint.
  Result<EtiRebuildStats> RebuildEti();

  /// The K-fuzzy-match operation for one input tuple: at most K reference
  /// tuples with fms >= c, most similar first, ties broken by ascending
  /// tid.
  Result<std::vector<Match>> FindMatches(const Row& input,
                                         QueryStats* stats = nullptr) const {
    return matcher_->FindMatches(input, stats);
  }

  /// Fetches a matched reference tuple.
  Result<Row> GetReferenceTuple(Tid tid) const { return ref_->Get(tid); }

  const Table& reference() const { return *ref_; }
  const Eti& eti() const { return *eti_; }
  /// The query engine (introspection: tuple-cache health for statusz).
  const EtiMatcher& eti_matcher() const { return *matcher_; }
  const IdfWeights& weights() const { return *weights_; }
  const EtiBuildStats& build_stats() const { return build_stats_; }
  /// Snapshot by value — the accumulator is shared across threads.
  AggregateStats aggregate_stats() const {
    return matcher_->aggregate_stats();
  }
  void ResetAggregateStats() { matcher_->ResetAggregateStats(); }
  const FuzzyMatchConfig& config() const { return config_; }

 private:
  /// One captured maintenance op, replayed onto the shadow index.
  struct SideOp {
    bool add = false;
    Tid tid = 0;
    Row row;
  };

  FuzzyMatcher() = default;

  /// Shared tail of Build() and Open(): wires the components together and
  /// attaches the ETI read accelerator (when budgeted).
  static Result<std::unique_ptr<FuzzyMatcher>> Assemble(
      Database* db, FuzzyMatchConfig config, Table* ref, BuiltEti built);

  /// The maintenance bodies, under maint_mu_ with the WAL txn open.
  Result<Tid> InsertLocked(const Row& row);
  Status RemoveLocked(Tid tid, Row* removed_row);

  /// Replays one side-log op onto `target` (the shadow ETI).
  Status ReplaySideOp(Eti* target, const SideOp& op);

  /// Canonical name of the live ETI relation.
  std::string EtiName() const;

  FuzzyMatchConfig config_;
  Database* db_ = nullptr;
  Table* ref_ = nullptr;
  std::unique_ptr<Eti> eti_;
  std::unique_ptr<IdfWeights> weights_;
  EtiBuildStats build_stats_;
  std::unique_ptr<EtiMatcher> matcher_;

  // Maintenance serialization + the rebuild's side-log capture window.
  // maint_mu_ is held for the whole of every maintenance op; the rebuild
  // raises maint_blocked_ while the builder scans the reference relation
  // (maintenance would race the scan) and capturing_ from rebuild start
  // until the swap.
  std::mutex maint_mu_;
  std::condition_variable maint_cv_;
  bool maint_blocked_ = false;
  bool capturing_ = false;
  bool rebuild_active_ = false;
  std::vector<SideOp> side_log_;
};

/// The name benchmark/fmbench.cc serves through; FuzzyMatcher is the only
/// engine.
using MatchSource = FuzzyMatcher;

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_CORE_FUZZY_MATCH_H_
