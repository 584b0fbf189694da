// ETI-based fuzzy match query processing (Section 4.3 of the paper).
//
// Implements the basic algorithm of Figure 3 — probe the ETI with every
// coordinate of every input token's signature, score tids in a hash table,
// then fetch and verify candidates with fms in decreasing score order —
// and the optimistic short circuiting (OSC) optimization of Figure 4,
// which probes q-grams in decreasing weight order and tries to stop after
// the heavy ones via a fetching test and a stopping test.

#ifndef FUZZYMATCH_MATCH_ETI_MATCHER_H_
#define FUZZYMATCH_MATCH_ETI_MATCHER_H_

#include <mutex>
#include <vector>

#include "common/flat_u32_map.h"
#include "eti/eti.h"
#include "match/match_types.h"
#include "match/tuple_cache.h"
#include "sim/fms.h"
#include "storage/table.h"
#include "text/idf_weights.h"
#include "text/minhash.h"
#include "text/tokenizer.h"

namespace fuzzymatch {

/// Thread safety: FindMatches is safe to call from any number of threads
/// concurrently — per-query state lives on the stack, the storage read
/// path is latched, and the aggregate-stats accumulator is guarded by a
/// small mutex (registry mirrors are lock-free atomics). Pass a distinct
/// `stats` out-param per thread, or none.
class EtiMatcher {
 public:
  /// `ref`, `eti` and `weights` must outlive the matcher and must describe
  /// the same build (same reference relation, same EtiParams).
  EtiMatcher(Table* ref, const Eti* eti, const IdfWeights* weights,
             MatcherOptions options);

  /// The K-fuzzy-match operation: the at-most-K reference tuples closest
  /// to `input` under fms, each with similarity >= the configured minimum,
  /// best first. Probabilistically exact (Theorems 1 and 2). K = 0 is
  /// InvalidArgument.
  Result<std::vector<Match>> FindMatches(const Row& input,
                                   QueryStats* stats = nullptr) const;

  /// Snapshot of the totals over all FindMatches() calls since
  /// construction/reset (by value: the accumulator is shared between
  /// threads and must not be read through a reference).
  AggregateStats aggregate_stats() const {
    std::lock_guard<std::mutex> lock(aggregate_mu_);
    return aggregate_;
  }
  void ResetAggregateStats() {
    std::lock_guard<std::mutex> lock(aggregate_mu_);
    aggregate_ = AggregateStats();
  }

  const MatcherOptions& options() const { return options_; }

  /// Drops `tid` from the verified-tuple cache — called by reference
  /// maintenance so served verifications never see a stale tokenization.
  void InvalidateCachedTuple(Tid tid) const { tuple_cache_.Erase(tid); }

  /// The cross-query verified-tuple cache (telemetry and tests).
  const TupleCache& tuple_cache() const { return tuple_cache_; }

  /// The index this matcher probes (introspection: statusz accel health).
  const Eti& eti() const { return *eti_; }

 private:
  /// One ETI probe. The gram bytes live in the query's arena string —
  /// offsets instead of per-probe strings keep expansion allocation-free
  /// (and safe across arena reallocation, which string_views would not
  /// be under SSO).
  struct Probe {
    uint32_t gram_offset;
    uint32_t gram_len;
    uint32_t coordinate;
    uint32_t column;
    double weight;
  };

  /// Per-thread reusable query state (gram arena, probe list, score
  /// tables, decode scratch) — defined in the .cc. FindMatchesImpl grabs
  /// the calling thread's instance, so steady-state queries allocate
  /// nothing.
  struct MatchScratch;

  /// fms(u, reference tuple `tid`), served from the per-query memo, then
  /// the cross-query tuple cache, and only then the pager.
  Result<double> VerifiedSimilarity(Tid tid, const TokenizedTuple& u,
                                    FlatU32Map<double>* cache,
                                    QueryStats* qs) const;

  /// FindMatches minus the trace boundary (which needs to observe the
  /// early returns' Status).
  Result<std::vector<Match>> FindMatchesImpl(const Row& input,
                                             QueryStats* stats) const;

  Table* ref_;
  const Eti* eti_;
  MatcherOptions options_;
  FmsSimilarity fms_;
  Tokenizer tokenizer_;
  MinHasher hasher_;
  mutable TupleCache tuple_cache_;
  mutable std::mutex aggregate_mu_;
  mutable AggregateStats aggregate_;  // guarded by aggregate_mu_
};

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_MATCH_ETI_MATCHER_H_
