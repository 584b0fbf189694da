#include "match/naive_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/customer_gen.h"
#include "storage/database.h"

namespace fuzzymatch {
namespace {

class NaiveMatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto table = db_->CreateTable(
        "orgs", Schema({"name", "city", "state", "zipcode"}));
    ASSERT_TRUE(table.ok());
    ref_ = *table;
    // Table 1 of the paper.
    ASSERT_TRUE(ref_->Insert(Row{std::string("Boeing Company"),
                                 std::string("Seattle"), std::string("WA"),
                                 std::string("98004")})
                    .ok());
    ASSERT_TRUE(ref_->Insert(Row{std::string("Bon Corporation"),
                                 std::string("Seattle"), std::string("WA"),
                                 std::string("98014")})
                    .ok());
    ASSERT_TRUE(ref_->Insert(Row{std::string("Companions"),
                                 std::string("Seattle"), std::string("WA"),
                                 std::string("98024")})
                    .ok());
    IdfWeights::Builder builder;
    const Tokenizer tok;
    Table::Scanner scanner = ref_->Scan();
    Tid tid;
    Row row;
    for (;;) {
      auto more = scanner.Next(&tid, &row);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      builder.AddTuple(tok.TokenizeTuple(row));
    }
    weights_ = std::make_unique<IdfWeights>(builder.Finish());
  }

  std::unique_ptr<Database> db_;
  Table* ref_ = nullptr;
  std::unique_ptr<IdfWeights> weights_;
};

TEST_F(NaiveMatcherTest, RequiresPrepare) {
  NaiveMatcher matcher(ref_, weights_.get(),
                       NaiveMatcher::SimilarityKind::kFms, MatcherOptions{});
  EXPECT_TRUE(matcher.FindMatches(Row{std::string("x"), std::nullopt,
                                      std::nullopt, std::nullopt})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(NaiveMatcherTest, ExactTupleMatchesItself) {
  NaiveMatcher matcher(ref_, weights_.get(),
                       NaiveMatcher::SimilarityKind::kFms, MatcherOptions{});
  ASSERT_TRUE(matcher.Prepare().ok());
  auto matches = matcher.FindMatches(Row{std::string("Boeing Company"),
                                         std::string("Seattle"),
                                         std::string("WA"),
                                         std::string("98004")});
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0].tid, 0u);
  EXPECT_DOUBLE_EQ((*matches)[0].similarity, 1.0);
}

TEST_F(NaiveMatcherTest, PaperTable2InputsUnderFms) {
  // I1 and I2 must resolve to R1 (tid 0) under fms.
  NaiveMatcher matcher(ref_, weights_.get(),
                       NaiveMatcher::SimilarityKind::kFms, MatcherOptions{});
  ASSERT_TRUE(matcher.Prepare().ok());
  for (const char* name : {"Beoing Company", "Beoing Co.",
                           "Boeing Corporation"}) {
    auto matches = matcher.FindMatches(Row{std::string(name),
                                           std::string("Seattle"),
                                           std::string("WA"),
                                           std::string("98004")});
    ASSERT_TRUE(matches.ok());
    ASSERT_FALSE(matches->empty()) << name;
    EXPECT_EQ((*matches)[0].tid, 0u) << name;
  }
}

TEST_F(NaiveMatcherTest, EdSimilarityMisleadsOnI3) {
  // The ed baseline must reproduce the paper's failure: I3 -> R2.
  NaiveMatcher matcher(ref_, weights_.get(),
                       NaiveMatcher::SimilarityKind::kEd, MatcherOptions{});
  ASSERT_TRUE(matcher.Prepare().ok());
  auto matches = matcher.FindMatches(Row{std::string("Boeing Corporation"),
                                         std::string("Seattle"),
                                         std::string("WA"),
                                         std::string("98004")});
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  EXPECT_EQ((*matches)[0].tid, 1u) << "ed prefers Bon Corporation";
}

TEST_F(NaiveMatcherTest, TopKReturnsKSortedMatches) {
  MatcherOptions options;
  options.k = 3;
  NaiveMatcher matcher(ref_, weights_.get(),
                       NaiveMatcher::SimilarityKind::kFms, options);
  ASSERT_TRUE(matcher.Prepare().ok());
  auto matches = matcher.FindMatches(Row{std::string("Boeing Company"),
                                         std::string("Seattle"),
                                         std::string("WA"),
                                         std::string("98004")});
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 3u);
  EXPECT_GE((*matches)[0].similarity, (*matches)[1].similarity);
  EXPECT_GE((*matches)[1].similarity, (*matches)[2].similarity);
  EXPECT_EQ((*matches)[0].tid, 0u);
}

TEST_F(NaiveMatcherTest, KZeroIsInvalidArgument) {
  MatcherOptions options;
  options.k = 0;
  NaiveMatcher matcher(ref_, weights_.get(),
                       NaiveMatcher::SimilarityKind::kFms, options);
  ASSERT_TRUE(matcher.Prepare().ok());
  EXPECT_TRUE(matcher.FindMatches(Row{std::string("Boeing Company"),
                                      std::string("Seattle"),
                                      std::string("WA"),
                                      std::string("98004")})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(NaiveMatcherTest, MinSimilarityFilters) {
  MatcherOptions options;
  options.k = 3;
  options.min_similarity = 0.99;
  NaiveMatcher matcher(ref_, weights_.get(),
                       NaiveMatcher::SimilarityKind::kFms, options);
  ASSERT_TRUE(matcher.Prepare().ok());
  auto matches = matcher.FindMatches(Row{std::string("Boeing Company"),
                                         std::string("Seattle"),
                                         std::string("WA"),
                                         std::string("98004")});
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u) << "only the exact match clears c=0.99";
  auto none = matcher.FindMatches(Row{std::string("Completely Unrelated"),
                                      std::string("Nowhere"),
                                      std::string("zz"),
                                      std::string("00000")});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_F(NaiveMatcherTest, StatsReportFullScan) {
  NaiveMatcher matcher(ref_, weights_.get(),
                       NaiveMatcher::SimilarityKind::kFms, MatcherOptions{});
  ASSERT_TRUE(matcher.Prepare().ok());
  QueryStats stats;
  ASSERT_TRUE(matcher
                  .FindMatches(Row{std::string("Boeing"), std::nullopt,
                                   std::nullopt, std::nullopt},
                               &stats)
                  .ok());
  EXPECT_EQ(stats.ref_tuples_fetched, 3u);
  EXPECT_GT(stats.elapsed_seconds, 0.0);
}

// TopKCollector's order is (similarity desc, tid asc) whatever order the
// scored tuples arrive in; every matcher's output inherits it.
std::vector<Match> Collect(size_t k, const std::vector<Match>& offers) {
  TopKCollector collector(k, 0.0);
  for (const Match& m : offers) collector.Offer(m.tid, m.similarity);
  return collector.Take();
}

TEST(TopKCollectorTest, ScoreTiesComeOutByAscendingTid) {
  std::vector<Match> offers = {{7, 0.75}, {19, 0.75}, {42, 0.75}};
  do {
    const std::vector<Match> top = Collect(3, offers);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].tid, 7u);
    EXPECT_EQ(top[1].tid, 19u);
    EXPECT_EQ(top[2].tid, 42u);
  } while (std::next_permutation(
      offers.begin(), offers.end(),
      [](const Match& a, const Match& b) { return a.tid < b.tid; }));
}

TEST(TopKCollectorTest, TieAtTheKthPlaceKeepsTheSmallerTid) {
  // 8 and 50 tie at 0.6 for the last slot; either offer order keeps 8.
  for (const std::vector<Match>& offers :
       {std::vector<Match>{{100, 0.9}, {50, 0.6}, {8, 0.6}},
        std::vector<Match>{{8, 0.6}, {100, 0.9}, {50, 0.6}}}) {
    const std::vector<Match> top = Collect(2, offers);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0], (Match{100, 0.9}));
    EXPECT_EQ(top[1], (Match{8, 0.6}));
  }
}

TEST(TopKCollectorTest, KLargerThanTheOffersReturnsThemAll) {
  const std::vector<Match> top = Collect(10, {{2, 0.3}, {1, 0.9}});
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], (Match{1, 0.9}));
  EXPECT_EQ(top[1], (Match{2, 0.3}));
}

TEST(TopKCollectorTest, RefusesKZero) {
  // Offer and KthBest would read the front of an empty heap.
  EXPECT_DEATH({ TopKCollector collector(0, 0.0); }, "K >= 1");
}

TEST(TopKCollectorTest, TruncatesToK) {
  const std::vector<Match> top = Collect(
      3, {{1, 0.9}, {5, 0.65}, {2, 0.8}, {4, 0.85}, {3, 0.7}});
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].tid, 1u);
  EXPECT_EQ(top[1].tid, 4u);
  EXPECT_EQ(top[2].tid, 2u);
}

}  // namespace
}  // namespace fuzzymatch
