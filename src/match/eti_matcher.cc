#include "match/eti_matcher.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/timer.h"
#include "eti/signature.h"
#include "fault/failpoint.h"
#include "match/naive_matcher.h"  // TopKCollector
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fuzzymatch {

namespace {

obs::Counter& ProbesBatchedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("lookup.probes_batched");
  return *c;
}

/// How far ahead of the probe being processed slot lines are prefetched.
/// Deep enough to cover a DRAM round-trip behind the decode+score work
/// of one probe, shallow enough not to thrash L1.
constexpr size_t kPrefetchDepth = 8;

/// Incrementally tracks the K+1 highest-scoring tids for the OSC tests.
/// Scores only grow during query processing and Update() is called on
/// every change, so the kept set is always the exact current top K+1:
/// a tid is only ever dropped when it is <= the list minimum, and the
/// list minimum never decreases afterwards. K is tiny, so a small sorted
/// array beats a heap.
class TopScores {
 public:
  TopScores() = default;
  explicit TopScores(size_t k) : limit_(k + 1) {}

  /// Re-arms for a new query, keeping the entry array's capacity.
  void Reset(size_t k) {
    limit_ = k + 1;
    entries_.clear();
  }

  /// Reports that `tid` now has total score `score` (>= its last value).
  void Update(Tid tid, double score) {
    // Remove a stale entry for this tid, if present.
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == tid) {
        entries_.erase(it);
        break;
      }
    }
    // Score ties order by tid ascending so the kept set (and which tid
    // is dropped at the limit) never depends on update order.
    auto pos = std::find_if(
        entries_.begin(), entries_.end(), [&](const auto& e) {
          return score > e.second || (score == e.second && tid < e.first);
        });
    if (pos == entries_.end()) {
      if (entries_.size() < limit_) {
        entries_.emplace_back(tid, score);
      }
      return;
    }
    entries_.insert(pos, {tid, score});
    if (entries_.size() > limit_) {
      entries_.pop_back();
    }
  }

  size_t size() const { return entries_.size(); }
  Tid tid(size_t i) const { return entries_[i].first; }
  double score(size_t i) const { return entries_[i].second; }

 private:
  size_t limit_ = 1;
  std::vector<std::pair<Tid, double>> entries_;  // descending score
};

}  // namespace

/// All heap-backed per-query state, held per thread so its capacity is
/// reused query over query — the hot loops then allocate only while a
/// buffer is still growing toward the workload's high-water mark.
struct EtiMatcher::MatchScratch {
  std::string gram_arena;
  std::vector<Probe> probes;
  std::vector<uint64_t> probe_hashes;
  std::vector<ArenaTokenCoordinate> coords;
  FlatU32Map<double> scores;
  FlatU32Map<double> fms_cache;
  TopScores top_scores;
  EtiScratch eti;
  std::vector<std::pair<double, Tid>> candidates;
};

EtiMatcher::EtiMatcher(Table* ref, const Eti* eti, const IdfWeights* weights,
                       MatcherOptions options)
    : ref_(ref),
      eti_(eti),
      options_(std::move(options)),
      fms_(weights, options_.fms),
      tokenizer_(eti->MakeTokenizer()),
      hasher_(eti->MakeHasher()),
      tuple_cache_(options_.tuple_cache_bytes, options_.tuple_cache_shards) {}

Result<double> EtiMatcher::VerifiedSimilarity(Tid tid,
                                              const TokenizedTuple& u,
                                              FlatU32Map<double>* cache,
                                              QueryStats* qs) const {
  if (const double* memo = cache->Find(tid)) {
    return *memo;
  }
  std::shared_ptr<const TokenizedTuple> tokens = tuple_cache_.Get(tid);
  if (tokens != nullptr) {
    ++qs->tuple_cache_hits;
  } else {
    FM_ASSIGN_OR_RETURN(const Row row, [&]() -> Result<Row> {
      FM_TRACE_SPAN("match.fetch");
      FM_FAIL_POINT("match.fetch_tuple");
      return ref_->Get(tid);
    }());
    ++qs->ref_tuples_fetched;
    tokens = std::make_shared<const TokenizedTuple>(
        tokenizer_.TokenizeTuple(row));
    tuple_cache_.Put(tid, tokens);
  }
  FM_TRACE_SPAN("match.verify");
  const double sim = fms_.Similarity(u, *tokens);
  cache->Insert(tid, sim);
  return sim;
}

Result<std::vector<Match>> EtiMatcher::FindMatches(const Row& input,
                                             QueryStats* stats) const {
  if (options_.k == 0) {
    return Status::InvalidArgument("matcher k must be at least 1");
  }
  // Request boundary: when nothing upstream (server worker, cleaner)
  // installed a trace, this query gets its own id and span tree.
  obs::MaybeRequestTrace boundary("match");
  Result<std::vector<Match>> result = FindMatchesImpl(input, stats);
  if (!result.ok()) {
    boundary.SetStatus(result.status());
  }
  return result;
}

Result<std::vector<Match>> EtiMatcher::FindMatchesImpl(
    const Row& input, QueryStats* stats) const {
  Timer timer;
  QueryStats local_stats;
  QueryStats* qs = stats != nullptr ? stats : &local_stats;
  qs->Reset();

  FM_TRACE_SPAN("match.find_matches");
  FM_FAIL_POINT("match.query_delay");

  static thread_local MatchScratch scr;

  const TokenizedTuple u = tokenizer_.TokenizeTuple(input);
  const EtiParams& params = eti_->params();

  // Expand tokens into weighted ETI probes; compute w(u) and the total
  // adjustment term Σ_t w(t)·(1 − 1/q) (Figure 3, step 7). Gram bytes go
  // into one arena string and probes carry offsets, so expansion does a
  // handful of amortized appends instead of a string per probe.
  std::string& gram_arena = scr.gram_arena;
  gram_arena.clear();
  std::vector<Probe>& probes = scr.probes;
  probes.clear();
  double total_weight = 0.0;
  double full_adjustment = 0.0;
  const double dq = 1.0 - 1.0 / static_cast<double>(params.q);
  {
    FM_TRACE_SPAN("match.signature");
    size_t token_count = 0;
    size_t char_count = 0;
    for (uint32_t col = 0; col < u.size(); ++col) {
      for (const auto& token : u[col]) {
        ++token_count;
        char_count += token.size();
      }
    }
    const size_t probe_estimate =
        params.full_qgram_index
            ? char_count + token_count
            : token_count *
                  (static_cast<size_t>(params.signature_size) + 1);
    probes.reserve(probe_estimate);
    gram_arena.reserve(char_count +
                       probe_estimate * static_cast<size_t>(params.q));
    std::vector<ArenaTokenCoordinate>& coords = scr.coords;
    for (uint32_t col = 0; col < u.size(); ++col) {
      for (const auto& token : u[col]) {
        const double w = fms_.TokenWeight(token, col);
        total_weight += w;
        full_adjustment += w * dq;
        coords.clear();
        AppendTokenCoordinates(hasher_, params, token, w, &gram_arena,
                               &coords);
        for (const ArenaTokenCoordinate& tc : coords) {
          probes.push_back(Probe{tc.gram_offset, tc.gram_len,
                                 tc.coordinate, col, tc.weight_share});
        }
      }
    }
  }

  // Upper "bound" on the fms of a candidate whose accumulated absolute
  // score is `score_abs` — see MatcherOptions::BoundPolicy for the three
  // flavours and their accuracy/efficiency trade-off.
  const double two_over_q = 2.0 / static_cast<double>(params.q);
  auto ScoreUpperBound = [&](double score_abs) {
    switch (options_.bound_policy) {
      case MatcherOptions::BoundPolicy::kAggressive:
        return std::min(1.0, score_abs / total_weight);
      case MatcherOptions::BoundPolicy::kTight:
        return std::min(1.0, two_over_q * score_abs / total_weight + dq);
      case MatcherOptions::BoundPolicy::kConservative:
        return std::min(1.0,
                        (score_abs + full_adjustment) / total_weight);
    }
    return 1.0;
  };

  auto finish = [&](std::vector<Match> result) {
    qs->elapsed_seconds = timer.ElapsedSeconds();
    {
      std::lock_guard<std::mutex> lock(aggregate_mu_);
      aggregate_.Accumulate(*qs);
    }
    // Key query attributes ride on the trace so a tracez entry explains
    // itself without cross-referencing the aggregate counters.
    if (obs::RequestTrace::Current() != nullptr) {
      obs::AddTraceCount("eti_lookups", qs->eti_lookups);
      obs::AddTraceCount("tids_processed", qs->tids_processed);
      obs::AddTraceCount("candidates", qs->candidates);
      obs::AddTraceCount("ref_tuples_fetched", qs->ref_tuples_fetched);
      obs::AddTraceCount("tuple_cache_hits", qs->tuple_cache_hits);
      obs::AddTraceCount("matches", result.size());
      if (qs->osc_succeeded) {
        obs::AddTraceCount("osc_succeeded", 1);
      }
    }
    return result;
  };

  if (probes.empty() || total_weight <= 0.0) {
    return finish({});
  }

  if (options_.use_osc) {
    // OSC processes q-grams in decreasing weight order (Section 4.3.2).
    std::stable_sort(probes.begin(), probes.end(),
                     [](const Probe& a, const Probe& b) {
                       return a.weight > b.weight;
                     });
  }

  FlatU32Map<double>& scores = scr.scores;
  scores.Clear();
  scores.Reserve(256);
  FlatU32Map<double>& fms_cache = scr.fms_cache;
  fms_cache.Clear();
  fms_cache.Reserve(2 * options_.k + 8);
  TopScores& top_scores = scr.top_scores;
  top_scores.Reset(options_.k);
  EtiScratch& scratch = scr.eti;

  // Batched probing: with the hash accelerator on the route, compute
  // every probe's slot hash up front and software-prefetch slot lines a
  // fixed depth ahead of the probe being processed. Probes are still
  // *processed* strictly in the weight-sorted order above, so OSC
  // semantics — and match output — are unchanged byte for byte.
  const bool batched = eti_->accelerator() != nullptr;
  std::vector<uint64_t>& probe_hashes = scr.probe_hashes;
  if (batched) {
    probe_hashes.resize(probes.size());
    for (size_t i = 0; i < probes.size(); ++i) {
      const Probe& p = probes[i];
      probe_hashes[i] = Eti::ProbeHash(
          std::string_view(gram_arena.data() + p.gram_offset, p.gram_len),
          p.coordinate, p.column);
    }
    ProbesBatchedCounter().Increment(probes.size());
    for (size_t i = 0; i < std::min(kPrefetchDepth, probes.size()); ++i) {
      eti_->PrefetchProbe(probe_hashes[i]);
    }
  }

  double remaining = total_weight;  // weight of probes not yet processed
  double processed = 0.0;

  for (size_t idx = 0; idx < probes.size(); ++idx) {
    const Probe& probe = probes[idx];
    const std::string_view gram(gram_arena.data() + probe.gram_offset,
                                probe.gram_len);
    ++qs->eti_lookups;
    if (batched && idx + kPrefetchDepth < probes.size()) {
      eti_->PrefetchProbe(probe_hashes[idx + kPrefetchDepth]);
    }
    FM_ASSIGN_OR_RETURN(
        const EtiLookupView entry,
        [&]() -> Result<EtiLookupView> {
          FM_TRACE_SPAN("match.probe");
          if (batched) {
            return eti_->LookupHashed(probe_hashes[idx], gram,
                                      probe.coordinate, probe.column,
                                      &scratch);
          }
          return eti_->LookupInto(gram, probe.coordinate, probe.column,
                                  &scratch);
        }());
    remaining -= probe.weight;
    processed += probe.weight;

    if (entry.found && !entry.is_stop) {
      FM_TRACE_SPAN("match.score");
      for (size_t t = 0; t < entry.num_tids; ++t) {
        const Tid tid = entry.tids[t];
        ++qs->tids_processed;
        if (double* score = scores.Find(tid)) {
          *score += probe.weight;
          if (options_.use_osc) {
            top_scores.Update(tid, *score);
          }
        } else if (!options_.admission_filter ||
                   ScoreUpperBound(probe.weight + remaining) >=
                       options_.min_similarity) {
          // A new tid can reach at most probe.weight + remaining score;
          // admit only if that could clear the similarity threshold
          // (Figure 3 step 9b, with the configured bound flavour).
          scores.Insert(tid, probe.weight);
          if (options_.use_osc) {
            top_scores.Update(tid, probe.weight);
          }
        }
      }
    }

    // Short-circuiting procedure (Figure 4), pointless after the last
    // probe (the basic path takes over then anyway).
    if (!options_.use_osc || idx + 1 >= probes.size() ||
        top_scores.size() < options_.k || processed <= 0.0) {
      continue;
    }
    const double score_k = top_scores.score(options_.k - 1);
    const double score_k1 =
        top_scores.size() > options_.k ? top_scores.score(options_.k) : 0.0;

    // Fetching test: extrapolate the K-th score over all q-grams and
    // compare with the best any other tid could still reach.
    const double estimated_k = score_k / processed * total_weight;
    const double best_possible_k1 = score_k1 + remaining;
    if (estimated_k <= best_possible_k1) {
      continue;
    }
    qs->osc_attempted = true;

    // Stopping test: every fetched candidate must already beat the upper
    // bound on any tuple outside the current top K.
    const double outsider_bound = ScoreUpperBound(score_k1 + remaining);
    bool all_pass = true;
    for (size_t j = 0; j < options_.k; ++j) {
      FM_ASSIGN_OR_RETURN(
          const double sim,
          VerifiedSimilarity(top_scores.tid(j), u, &fms_cache, qs));
      if (sim < outsider_bound) {
        all_pass = false;
        break;
      }
    }
    if (!all_pass) {
      continue;
    }
    qs->osc_succeeded = true;
    qs->hash_table_size = scores.size();
    TopKCollector collector(options_.k, options_.min_similarity);
    for (size_t j = 0; j < options_.k; ++j) {
      collector.Offer(top_scores.tid(j),
                      *fms_cache.Find(top_scores.tid(j)));
    }
    return finish(collector.Take());
  }

  // Basic path (Figure 3 steps 11-13): verify candidates in decreasing
  // score order, stopping once no unverified candidate's upper bound can
  // beat the current K-th best similarity.
  qs->hash_table_size = scores.size();
  std::vector<std::pair<double, Tid>>& candidates = scr.candidates;
  candidates.clear();
  candidates.reserve(scores.size());
  scores.ForEach([&](uint32_t tid, const double& score) {
    if (ScoreUpperBound(score) >= options_.min_similarity) {
      candidates.emplace_back(score, tid);
    }
  });
  qs->candidates = candidates.size();
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });

  TopKCollector collector(options_.k, options_.min_similarity);
  for (const auto& [score, tid] : candidates) {
    const double upper = ScoreUpperBound(score);
    const double kth = collector.KthBest();
    // Strict inequality: a candidate whose bound exactly equals the K-th
    // similarity could still tie and win on the tid tie-break.
    if (kth >= 0.0 && upper < kth) {
      break;  // nothing left can displace the current top K
    }
    FM_ASSIGN_OR_RETURN(const double sim,
                        VerifiedSimilarity(tid, u, &fms_cache, qs));
    collector.Offer(tid, sim);
  }
  return finish(collector.Take());
}

}  // namespace fuzzymatch
