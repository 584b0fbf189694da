// End-to-end tests of the public FuzzyMatcher facade: the Figure 1
// template — build an index over a clean reference relation, push dirty
// tuples through, load the match or route for cleaning.

#include "core/fuzzy_match.h"

#include <gtest/gtest.h>

#include "gen/customer_gen.h"
#include "gen/dataset.h"

namespace fuzzymatch {
namespace {

class FuzzyMatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto table = db_->CreateTable("customers",
                                  CustomerGenerator::CustomerSchema());
    ASSERT_TRUE(table.ok());
    CustomerGenOptions options;
    options.num_tuples = 3000;
    CustomerGenerator gen(options);
    ASSERT_TRUE(gen.Populate(*table).ok());
  }

  std::unique_ptr<Database> db_;
};

TEST_F(FuzzyMatcherTest, BuildFailsOnMissingTable) {
  EXPECT_TRUE(FuzzyMatcher::Build(db_.get(), "nope")
                  .status()
                  .IsNotFound());
}

TEST_F(FuzzyMatcherTest, KZeroIsInvalidArgument) {
  // K = 0 has no K-th score; it must be refused before any query runs.
  FuzzyMatchConfig config;
  config.matcher.k = 0;
  EXPECT_TRUE(FuzzyMatcher::Build(db_.get(), "customers", config)
                  .status()
                  .IsInvalidArgument());
  const FuzzyMatchConfig valid;
  ASSERT_TRUE(FuzzyMatcher::Build(db_.get(), "customers", valid).ok());
  EXPECT_TRUE(FuzzyMatcher::Open(db_.get(), "customers",
                                 valid.eti.StrategyName(), config)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(FuzzyMatcherTest, BuildAndMatchEndToEnd) {
  FuzzyMatchConfig config;
  config.eti.signature_size = 3;
  config.eti.index_tokens = true;
  auto matcher = FuzzyMatcher::Build(db_.get(), "customers", config);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  EXPECT_EQ((*matcher)->build_stats().reference_tuples, 3000u);
  EXPECT_GT((*matcher)->eti().entry_count(), 0u);
  EXPECT_EQ((*matcher)->weights().num_tuples(), 3000u);

  // Clean input validates against itself.
  auto clean = (*matcher)->reference().Get(100);
  ASSERT_TRUE(clean.ok());
  auto matches = (*matcher)->FindMatches(*clean);
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  EXPECT_DOUBLE_EQ((*matches)[0].similarity, 1.0);
  auto fetched = (*matcher)->GetReferenceTuple((*matches)[0].tid);
  ASSERT_TRUE(fetched.ok());
}

TEST_F(FuzzyMatcherTest, RecoversDirtyInputsAccurately) {
  FuzzyMatchConfig config;
  config.eti.signature_size = 3;
  config.eti.index_tokens = true;
  auto matcher = FuzzyMatcher::Build(db_.get(), "customers", config);
  ASSERT_TRUE(matcher.ok());

  auto ref = db_->GetTable("customers");
  ASSERT_TRUE(ref.ok());
  DatasetSpec spec = DatasetD2();
  spec.num_inputs = 150;
  auto inputs = GenerateInputs(*ref, spec, &(*matcher)->weights());
  ASSERT_TRUE(inputs.ok());

  int correct = 0;
  for (const auto& input : *inputs) {
    auto matches = (*matcher)->FindMatches(input.dirty);
    ASSERT_TRUE(matches.ok());
    correct += (!matches->empty() && (*matches)[0].tid == input.seed_tid);
  }
  // D2-grade corruption on a 3000-row relation: the matcher should
  // recover a solid majority (the paper reports ~85-95% on real data).
  EXPECT_GT(correct, 150 * 6 / 10) << correct << "/150";
  EXPECT_EQ((*matcher)->aggregate_stats().queries, 150u);
}

TEST_F(FuzzyMatcherTest, ThresholdRoutesGarbageToCleaning) {
  FuzzyMatchConfig config;
  config.matcher.min_similarity = 0.8;
  auto matcher = FuzzyMatcher::Build(db_.get(), "customers", config);
  ASSERT_TRUE(matcher.ok());
  auto garbage = (*matcher)->FindMatches(
      Row{std::string("xqzkwv pltrn"), std::string("mmnop"),
          std::string("zz"), std::string("00000")});
  ASSERT_TRUE(garbage.ok());
  EXPECT_TRUE(garbage->empty()) << "below c: route to further cleaning";
}

TEST_F(FuzzyMatcherTest, MultipleStrategiesCoexistInOneDatabase) {
  FuzzyMatchConfig q3;
  q3.eti.signature_size = 3;
  FuzzyMatchConfig qt2;
  qt2.eti.signature_size = 2;
  qt2.eti.index_tokens = true;
  auto m1 = FuzzyMatcher::Build(db_.get(), "customers", q3);
  auto m2 = FuzzyMatcher::Build(db_.get(), "customers", qt2);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  auto row = (*m1)->reference().Get(7);
  ASSERT_TRUE(row.ok());
  auto r1 = (*m1)->FindMatches(*row);
  auto r2 = (*m2)->FindMatches(*row);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ((*r1)[0].similarity, 1.0);
  EXPECT_DOUBLE_EQ((*r2)[0].similarity, 1.0);
}

TEST_F(FuzzyMatcherTest, ResetAggregateStats) {
  auto matcher = FuzzyMatcher::Build(db_.get(), "customers");
  ASSERT_TRUE(matcher.ok());
  auto row = (*matcher)->reference().Get(0);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE((*matcher)->FindMatches(*row).ok());
  EXPECT_EQ((*matcher)->aggregate_stats().queries, 1u);
  (*matcher)->ResetAggregateStats();
  EXPECT_EQ((*matcher)->aggregate_stats().queries, 0u);
}

}  // namespace
}  // namespace fuzzymatch
