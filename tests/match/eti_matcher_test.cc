#include "match/eti_matcher.h"

#include <gtest/gtest.h>

#include "eti/eti_builder.h"
#include "gen/customer_gen.h"
#include "gen/dataset.h"
#include "match/naive_matcher.h"
#include "storage/database.h"

namespace fuzzymatch {
namespace {

// Environment shared by the heavier tests: a 2000-row synthetic customer
// relation with one ETI per strategy under test.
class EtiMatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto table = db_->CreateTable("customers",
                                  CustomerGenerator::CustomerSchema());
    ASSERT_TRUE(table.ok());
    ref_ = *table;
    CustomerGenOptions gen_options;
    gen_options.num_tuples = 2000;
    CustomerGenerator gen(gen_options);
    ASSERT_TRUE(gen.Populate(ref_).ok());
  }

  BuiltEti BuildEti(int h, bool tokens, uint32_t stop_threshold = 10000) {
    EtiBuilder::Options options;
    options.params.q = 4;
    options.params.signature_size = h;
    options.params.index_tokens = tokens;
    options.params.stop_qgram_threshold = stop_threshold;
    auto built = EtiBuilder::Build(db_.get(), ref_, options);
    EXPECT_TRUE(built.ok()) << built.status();
    return std::move(*built);
  }

  std::vector<InputTuple> MakeInputs(size_t n) {
    DatasetSpec spec = DatasetD2();
    spec.num_inputs = n;
    auto inputs = GenerateInputs(ref_, spec, nullptr);
    EXPECT_TRUE(inputs.ok());
    return std::move(*inputs);
  }

  std::unique_ptr<Database> db_;
  Table* ref_ = nullptr;
};

TEST_F(EtiMatcherTest, ExactInputFindsItselfWithSimilarityOne) {
  const BuiltEti built = BuildEti(3, false);
  const EtiMatcher matcher(ref_, &built.eti, &built.weights,
                           MatcherOptions{});
  for (const Tid tid : {0u, 777u, 1999u}) {
    auto row = ref_->Get(tid);
    ASSERT_TRUE(row.ok());
    auto matches = matcher.FindMatches(*row);
    ASSERT_TRUE(matches.ok());
    ASSERT_FALSE(matches->empty());
    EXPECT_DOUBLE_EQ((*matches)[0].similarity, 1.0);
    // Ties at similarity 1 are possible for duplicate synthetic rows; the
    // seed must at least be as similar as the returned best.
    auto self = ref_->Get((*matches)[0].tid);
    ASSERT_TRUE(self.ok());
  }
}

TEST_F(EtiMatcherTest, AgreesWithNaiveMatcherOnDirtyInputs) {
  // The central correctness property (Theorems 1 and 2): the ETI matcher
  // returns the same top-1 similarity as the exhaustive scan. With H=8
  // coordinates per token misses are rare but not impossible (the
  // reference relation deliberately contains confusable near-neighbors);
  // we require exact agreement on >= 90% of 120 inputs, near-agreement
  // (within 0.1) on all, and that the indexed result never beats the
  // exhaustive optimum.
  const BuiltEti built = BuildEti(8, false);
  const MatcherOptions options;
  const EtiMatcher eti_matcher(ref_, &built.eti, &built.weights, options);
  NaiveMatcher naive(ref_, &built.weights,
                     NaiveMatcher::SimilarityKind::kFms, options);
  ASSERT_TRUE(naive.Prepare().ok());

  const auto inputs = MakeInputs(120);
  int agree = 0;
  int bad_misses = 0;  // true optimum beaten by more than 0.1 similarity
  for (const auto& input : inputs) {
    auto got = eti_matcher.FindMatches(input.dirty);
    auto want = naive.FindMatches(input.dirty);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ASSERT_FALSE(want->empty());
    if (got->empty()) {
      ++bad_misses;
      continue;
    }
    const double got_sim = (*got)[0].similarity;
    const double want_sim = (*want)[0].similarity;
    EXPECT_LE(got_sim, want_sim + 1e-9) << "cannot beat the true optimum";
    bad_misses += (got_sim < want_sim - 0.1);
    agree += (std::abs(got_sim - want_sim) < 1e-9);
  }
  EXPECT_GE(agree, static_cast<int>(inputs.size() * 90 / 100))
      << agree << "/" << inputs.size();
  // Bad misses happen when an input is so corrupted that the true match's
  // signature overlap collapses (the case the Lemma 4.2 slack insures
  // against; see MatcherOptions::BoundPolicy). They must stay
  // rare.
  EXPECT_LE(bad_misses, static_cast<int>(inputs.size() / 15))
      << bad_misses << "/" << inputs.size();
}

TEST_F(EtiMatcherTest, OscMatchesBasicAlgorithmResults) {
  const BuiltEti built = BuildEti(3, true);
  MatcherOptions with_osc;
  with_osc.use_osc = true;
  MatcherOptions without_osc;
  without_osc.use_osc = false;
  const EtiMatcher osc(ref_, &built.eti, &built.weights, with_osc);
  const EtiMatcher basic(ref_, &built.eti, &built.weights, without_osc);

  const auto inputs = MakeInputs(100);
  size_t osc_successes = 0;
  for (const auto& input : inputs) {
    QueryStats stats;
    auto a = osc.FindMatches(input.dirty, &stats);
    auto b = basic.FindMatches(input.dirty);
    ASSERT_TRUE(a.ok() && b.ok());
    osc_successes += stats.osc_succeeded;
    ASSERT_EQ(a->empty(), b->empty());
    if (!a->empty()) {
      EXPECT_NEAR((*a)[0].similarity, (*b)[0].similarity, 1e-9)
          << "OSC may not change the answer";
    }
  }
  EXPECT_GT(osc_successes, 0u) << "OSC should fire on this workload";
}

TEST_F(EtiMatcherTest, TopKOrderingAndThreshold) {
  const BuiltEti built = BuildEti(3, false);
  MatcherOptions options;
  options.k = 5;
  const EtiMatcher matcher(ref_, &built.eti, &built.weights, options);
  auto row = ref_->Get(42);
  ASSERT_TRUE(row.ok());
  auto matches = matcher.FindMatches(*row);
  ASSERT_TRUE(matches.ok());
  ASSERT_GE(matches->size(), 1u);
  ASSERT_LE(matches->size(), 5u);
  for (size_t i = 1; i < matches->size(); ++i) {
    EXPECT_GE((*matches)[i - 1].similarity, (*matches)[i].similarity);
  }
  EXPECT_DOUBLE_EQ((*matches)[0].similarity, 1.0);

  // A high threshold prunes the weaker matches.
  MatcherOptions strict = options;
  strict.min_similarity = 0.95;
  const EtiMatcher strict_matcher(ref_, &built.eti, &built.weights, strict);
  auto strict_matches = strict_matcher.FindMatches(*row);
  ASSERT_TRUE(strict_matches.ok());
  for (const auto& m : *strict_matches) {
    EXPECT_GE(m.similarity, 0.95);
  }
  EXPECT_LE(strict_matches->size(), matches->size());
}

TEST_F(EtiMatcherTest, KZeroIsInvalidArgument) {
  // The OSC test reads the K-th best score, top_scores.score(k - 1).
  const BuiltEti built = BuildEti(2, false);
  MatcherOptions options;
  options.k = 0;
  const EtiMatcher matcher(ref_, &built.eti, &built.weights, options);
  auto row = ref_->Get(42);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(matcher.FindMatches(*row).status().IsInvalidArgument());
}

TEST_F(EtiMatcherTest, EmptyAndDegenerateInputs) {
  const BuiltEti built = BuildEti(2, false);
  const EtiMatcher matcher(ref_, &built.eti, &built.weights,
                           MatcherOptions{});
  // All-NULL input: no tokens, no matches, no crash.
  auto empty = matcher.FindMatches(
      Row{std::nullopt, std::nullopt, std::nullopt, std::nullopt});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  // Whitespace-only.
  auto blank = matcher.FindMatches(Row{std::string("   "), std::string(""),
                                       std::nullopt, std::nullopt});
  ASSERT_TRUE(blank.ok());
  EXPECT_TRUE(blank->empty());
  // Tokens that hit nothing in the ETI.
  auto miss = matcher.FindMatches(Row{std::string("qqqqqqqq wwwwwwww"),
                                      std::nullopt, std::nullopt,
                                      std::nullopt});
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->empty());
}

TEST_F(EtiMatcherTest, StatsAreConsistent) {
  const BuiltEti built = BuildEti(3, true);
  const EtiMatcher matcher(ref_, &built.eti, &built.weights,
                           MatcherOptions{});
  auto row = ref_->Get(10);
  ASSERT_TRUE(row.ok());
  QueryStats stats;
  ASSERT_TRUE(matcher.FindMatches(*row, &stats).ok());
  EXPECT_GT(stats.eti_lookups, 0u);
  EXPECT_GT(stats.tids_processed, 0u);
  EXPECT_GT(stats.ref_tuples_fetched, 0u);
  EXPECT_GT(stats.elapsed_seconds, 0.0);

  const AggregateStats& agg = matcher.aggregate_stats();
  EXPECT_EQ(agg.queries, 1u);
  EXPECT_EQ(agg.eti_lookups, stats.eti_lookups);
  EXPECT_EQ(agg.ref_tuples_fetched, stats.ref_tuples_fetched);
  EXPECT_EQ(agg.fetched_when_osc_succeeded + agg.fetched_when_osc_failed +
                agg.fetched_when_osc_not_attempted,
            agg.ref_tuples_fetched);
  // The failed bucket only counts queries where OSC actually fired.
  if (agg.osc_attempted == 0) {
    EXPECT_EQ(agg.fetched_when_osc_failed, 0u);
  }
}

TEST_F(EtiMatcherTest, StopQGramsDegradeGracefully) {
  // An aggressive stop threshold NULLs out many tid-lists; matching must
  // still work through the surviving rare q-grams.
  const BuiltEti built = BuildEti(3, false, /*stop_threshold=*/50);
  const EtiMatcher matcher(ref_, &built.eti, &built.weights,
                           MatcherOptions{});
  auto row = ref_->Get(5);
  ASSERT_TRUE(row.ok());
  auto matches = matcher.FindMatches(*row);
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  EXPECT_DOUBLE_EQ((*matches)[0].similarity, 1.0);
}

TEST_F(EtiMatcherTest, AdmissionFilterPrunesWithHighThreshold) {
  const BuiltEti built = BuildEti(2, false);
  MatcherOptions with_filter;
  with_filter.min_similarity = 0.9;
  with_filter.admission_filter = true;
  with_filter.use_osc = false;
  MatcherOptions without_filter = with_filter;
  without_filter.admission_filter = false;
  const EtiMatcher filtered(ref_, &built.eti, &built.weights, with_filter);
  const EtiMatcher unfiltered(ref_, &built.eti, &built.weights,
                              without_filter);
  const auto inputs = MakeInputs(30);
  uint64_t filtered_size = 0, unfiltered_size = 0;
  for (const auto& input : inputs) {
    QueryStats fs, us;
    auto a = filtered.FindMatches(input.dirty, &fs);
    auto b = unfiltered.FindMatches(input.dirty, &us);
    ASSERT_TRUE(a.ok() && b.ok());
    filtered_size += fs.hash_table_size;
    unfiltered_size += us.hash_table_size;
    // Same results above the threshold.
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_NEAR((*a)[i].similarity, (*b)[i].similarity, 1e-9);
    }
  }
  EXPECT_LE(filtered_size, unfiltered_size);
}

TEST_F(EtiMatcherTest, FullQGramIndexMatchesAtLeastAsAccurately) {
  // The Section 2 baseline: deterministic retrieval (no min-hash
  // sampling) must be at least as accurate as a sampled signature, at a
  // larger index size.
  EtiBuilder::Options full_options;
  full_options.params.q = 4;
  full_options.params.full_qgram_index = true;
  auto full_built = EtiBuilder::Build(db_.get(), ref_, full_options);
  ASSERT_TRUE(full_built.ok());
  const BuiltEti sampled = BuildEti(2, false);

  const EtiMatcher full_matcher(ref_, &full_built->eti,
                                &full_built->weights, MatcherOptions{});
  const EtiMatcher sampled_matcher(ref_, &sampled.eti, &sampled.weights,
                                   MatcherOptions{});
  const auto inputs = MakeInputs(80);
  int full_correct = 0, sampled_correct = 0;
  for (const auto& input : inputs) {
    auto a = full_matcher.FindMatches(input.dirty);
    auto b = sampled_matcher.FindMatches(input.dirty);
    ASSERT_TRUE(a.ok() && b.ok());
    full_correct += (!a->empty() && (*a)[0].tid == input.seed_tid);
    sampled_correct += (!b->empty() && (*b)[0].tid == input.seed_tid);
  }
  EXPECT_GE(full_correct, sampled_correct - 3);
  EXPECT_GT(full_built->stats.pre_eti_rows,
            sampled.stats.pre_eti_rows * 2);
  // Exact self-match still holds.
  auto row = ref_->Get(3);
  ASSERT_TRUE(row.ok());
  auto self = full_matcher.FindMatches(*row);
  ASSERT_TRUE(self.ok());
  ASSERT_FALSE(self->empty());
  EXPECT_DOUBLE_EQ((*self)[0].similarity, 1.0);
}

TEST_F(EtiMatcherTest, QPlusTAgreesWithQOnAccuracyCriticalInputs) {
  const BuiltEti q_built = BuildEti(3, false);
  const BuiltEti qt_built = BuildEti(3, true);
  const EtiMatcher q_matcher(ref_, &q_built.eti, &q_built.weights,
                             MatcherOptions{});
  const EtiMatcher qt_matcher(ref_, &qt_built.eti, &qt_built.weights,
                              MatcherOptions{});
  const auto inputs = MakeInputs(80);
  int q_correct = 0, qt_correct = 0;
  for (const auto& input : inputs) {
    auto a = q_matcher.FindMatches(input.dirty);
    auto b = qt_matcher.FindMatches(input.dirty);
    ASSERT_TRUE(a.ok() && b.ok());
    q_correct += (!a->empty() && (*a)[0].tid == input.seed_tid);
    qt_correct += (!b->empty() && (*b)[0].tid == input.seed_tid);
  }
  // Section 5.1 / Figure 5: adding tokens must not hurt accuracy much.
  EXPECT_GE(qt_correct, q_correct - 8);
  EXPECT_GT(q_correct, static_cast<int>(inputs.size()) / 2);
}

}  // namespace
}  // namespace fuzzymatch
