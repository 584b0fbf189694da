// Naive fuzzy match: compare the input tuple against every reference
// tuple. The paper's baseline (and its unit of normalized elapsed time),
// also usable with the ed similarity for the Section 6.2.1.1 comparison.

#ifndef FUZZYMATCH_MATCH_NAIVE_MATCHER_H_
#define FUZZYMATCH_MATCH_NAIVE_MATCHER_H_

#include <vector>

#include "match/match_types.h"
#include "sim/fms.h"
#include "storage/table.h"
#include "text/idf_weights.h"
#include "text/tokenizer.h"

namespace fuzzymatch {

/// Thread safety: once Prepare() has returned, FindMatches is safe from
/// concurrent threads — it only reads the tokenized snapshot and records
/// into lock-free registry metrics.
class NaiveMatcher {
 public:
  /// Which similarity function ranks the reference tuples.
  enum class SimilarityKind { kFms, kEd };

  /// `ref` and `weights` must outlive the matcher.
  NaiveMatcher(Table* ref, const IdfWeights* weights, SimilarityKind kind,
               MatcherOptions options);

  /// Scans and tokenizes the reference relation once; must be called
  /// before Match().
  Status Prepare();

  /// Returns the K reference tuples most similar to `input`, best first,
  /// filtered by the minimum similarity. K = 0 is InvalidArgument.
  Result<std::vector<Match>> FindMatches(const Row& input,
                                   QueryStats* stats = nullptr) const;

 private:
  Table* ref_;
  SimilarityKind kind_;
  MatcherOptions options_;
  FmsSimilarity fms_;
  Tokenizer tokenizer_;
  std::vector<std::pair<Tid, TokenizedTuple>> tokenized_ref_;
  bool prepared_ = false;
};

/// Keeps the best K (tid, similarity) pairs seen; shared by both matchers.
class TopKCollector {
 public:
  /// `k` must be at least 1.
  TopKCollector(size_t k, double min_similarity);

  /// Offers one scored tuple.
  void Offer(Tid tid, double similarity);

  /// K-th best similarity so far, or -1 if fewer than K collected. Any
  /// tuple that cannot beat this cannot enter the result.
  double KthBest() const;

  /// Sorted best-first, filtered by the minimum similarity.
  std::vector<Match> Take();

 private:
  size_t k_;
  double min_similarity_;
  std::vector<Match> heap_;  // min-heap on similarity
};

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_MATCH_NAIVE_MATCHER_H_
