#include "match/naive_matcher.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "sim/ed_tuple.h"

namespace fuzzymatch {

namespace {

obs::Counter& NaiveQueriesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("naive.queries");
  return *c;
}

obs::Histogram& NaiveQuerySeconds() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "naive.query_seconds", obs::LatencyHistogramOptions());
  return *h;
}

// Min-heap on (similarity, then tid descending): the root is the entry
// that deterministically loses first, so score ties evict the larger tid
// and the retained set never depends on insertion order.
struct HeapLess {
  bool operator()(const Match& a, const Match& b) const {
    if (a.similarity != b.similarity) {
      return a.similarity > b.similarity;
    }
    return a.tid < b.tid;
  }
};

bool Beats(Tid tid, double similarity, const Match& worst) {
  if (similarity != worst.similarity) {
    return similarity > worst.similarity;
  }
  return tid < worst.tid;
}
}  // namespace

TopKCollector::TopKCollector(size_t k, double min_similarity)
    : k_(k), min_similarity_(min_similarity) {
  FM_CHECK_GT(k_, size_t{0}) << "a top-K collector needs K >= 1";
}

void TopKCollector::Offer(Tid tid, double similarity) {
  if (similarity < min_similarity_) {
    return;
  }
  if (heap_.size() < k_) {
    heap_.push_back(Match{tid, similarity});
    std::push_heap(heap_.begin(), heap_.end(), HeapLess());
    return;
  }
  if (Beats(tid, similarity, heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), HeapLess());
    heap_.back() = Match{tid, similarity};
    std::push_heap(heap_.begin(), heap_.end(), HeapLess());
  }
}

double TopKCollector::KthBest() const {
  if (heap_.size() < k_) {
    return -1.0;
  }
  return heap_.front().similarity;
}

std::vector<Match> TopKCollector::Take() {
  std::vector<Match> out = std::move(heap_);
  std::sort(out.begin(), out.end(), [](const Match& a, const Match& b) {
    if (a.similarity != b.similarity) {
      return a.similarity > b.similarity;
    }
    return a.tid < b.tid;
  });
  return out;
}

NaiveMatcher::NaiveMatcher(Table* ref, const IdfWeights* weights,
                           SimilarityKind kind, MatcherOptions options)
    : ref_(ref),
      kind_(kind),
      options_(std::move(options)),
      fms_(weights, options_.fms),
      tokenizer_() {}

Status NaiveMatcher::Prepare() {
  tokenized_ref_.clear();
  tokenized_ref_.reserve(ref_->row_count());
  Table::Scanner scanner = ref_->Scan();
  Tid tid;
  Row row;
  for (;;) {
    FM_ASSIGN_OR_RETURN(const bool more, scanner.Next(&tid, &row));
    if (!more) break;
    tokenized_ref_.emplace_back(tid, tokenizer_.TokenizeTuple(row));
  }
  prepared_ = true;
  return Status::OK();
}

Result<std::vector<Match>> NaiveMatcher::FindMatches(const Row& input,
                                               QueryStats* stats) const {
  if (!prepared_) {
    return Status::InvalidArgument("NaiveMatcher::Prepare() not called");
  }
  if (options_.k == 0) {
    return Status::InvalidArgument("matcher k must be at least 1");
  }
  Timer timer;
  const TokenizedTuple u = tokenizer_.TokenizeTuple(input);
  TopKCollector top_k(options_.k, options_.min_similarity);
  for (const auto& [tid, v] : tokenized_ref_) {
    const double sim = (kind_ == SimilarityKind::kFms)
                           ? fms_.Similarity(u, v)
                           : EdTupleSimilarity(u, v);
    top_k.Offer(tid, sim);
  }
  const double elapsed = timer.ElapsedSeconds();
  NaiveQueriesCounter().Increment();
  NaiveQuerySeconds().Observe(elapsed);
  if (stats != nullptr) {
    stats->Reset();
    stats->ref_tuples_fetched = tokenized_ref_.size();
    stats->elapsed_seconds = elapsed;
  }
  return top_k.Take();
}

}  // namespace fuzzymatch
