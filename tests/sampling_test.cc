#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "sampling/local_sampler.h"
#include "sampling/rank_sample.h"

namespace prc::sampling {
namespace {

TEST(RankSampleSetTest, SortsByValue) {
  RankSampleSet set({{3.0, 3}, {1.0, 1}, {2.0, 2}});
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.samples()[0].value, 1.0);
  EXPECT_EQ(set.samples()[2].value, 3.0);
}

// Rank validation is PRC_DCHECK-gated (debug/sanitizer builds only); a
// release build constructs without checking.
#if PRC_DCHECK_IS_ON()
TEST(RankSampleSetTest, RejectsDuplicateOrZeroRanks) {
  EXPECT_THROW(RankSampleSet({{1.0, 2}, {3.0, 2}}), std::invalid_argument);
  EXPECT_THROW(RankSampleSet({{1.0, 0}}), std::invalid_argument);
}
#endif

TEST(RankSampleSetTest, PredecessorSuccessorBasics) {
  const RankSampleSet set({{10.0, 2}, {20.0, 5}, {30.0, 9}});
  // predecessor: largest value <= x
  EXPECT_EQ(set.predecessor(15.0)->value, 10.0);
  EXPECT_EQ(set.predecessor(10.0)->value, 10.0);  // equality counts
  EXPECT_EQ(set.predecessor(9.99), std::nullopt);
  EXPECT_EQ(set.predecessor(100.0)->value, 30.0);
  // successor: smallest value > x
  EXPECT_EQ(set.successor(15.0)->value, 20.0);
  EXPECT_EQ(set.successor(20.0)->value, 30.0);  // strictly greater
  EXPECT_EQ(set.successor(30.0), std::nullopt);
  EXPECT_EQ(set.successor(-5.0)->value, 10.0);
}

TEST(RankSampleSetTest, TiesPickNearestRank) {
  // Duplicate values: predecessor takes the largest rank among ties, the
  // successor the smallest — the samples nearest the query boundary.
  const RankSampleSet set({{5.0, 3}, {5.0, 4}, {5.0, 7}, {8.0, 9}});
  EXPECT_EQ(set.predecessor(5.0)->rank, 7u);
  EXPECT_EQ(set.successor(5.0)->rank, 9u);
  EXPECT_EQ(set.successor(4.0)->rank, 3u);
}

TEST(RankSampleSetTest, EmptySetHasNoNeighbors) {
  const RankSampleSet set;
  EXPECT_EQ(set.predecessor(1.0), std::nullopt);
  EXPECT_EQ(set.successor(1.0), std::nullopt);
}

TEST(RankSampleSetTest, MergeCombinesAndValidates) {
  const RankSampleSet a({{1.0, 1}, {3.0, 3}});
  const RankSampleSet b({{2.0, 2}});
  const RankSampleSet ab = a.merged(b);
  EXPECT_EQ(ab.size(), 3u);
  EXPECT_EQ(ab.samples()[1].value, 2.0);
  EXPECT_EQ(a.size(), 2u);  // the operands are left as they were
#if PRC_DCHECK_IS_ON()
  const RankSampleSet conflicting({{9.0, 3}});
  EXPECT_THROW((void)ab.merged(conflicting), std::invalid_argument);
#endif
}

TEST(LocalSamplerTest, RanksFollowSortedOrder) {
  LocalSampler sampler({5.0, 1.0, 3.0, 2.0, 4.0});
  Rng rng(1);
  sampler.raise_probability(1.0, rng);  // take everything
  const auto set = sampler.current_sample();
  ASSERT_EQ(set.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(set.samples()[i].value, static_cast<double>(i + 1));
    EXPECT_EQ(set.samples()[i].rank, i + 1);
  }
}

TEST(LocalSamplerTest, InclusionRateMatchesProbability) {
  std::vector<double> values(20000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  LocalSampler sampler(values);
  Rng rng(2);
  const auto added = sampler.raise_probability(0.3, rng);
  EXPECT_EQ(added.size(), sampler.sample_count());
  EXPECT_NEAR(static_cast<double>(sampler.sample_count()) /
                  static_cast<double>(values.size()),
              0.3, 0.02);
}

TEST(LocalSamplerTest, TopUpPreservesMarginalInclusion) {
  // Raising 0.1 -> 0.4 in two steps must leave every element included with
  // marginal probability 0.4, identical to a single-shot 0.4 draw.
  const std::size_t n = 30000;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
  LocalSampler sampler(values);
  Rng rng(3);
  sampler.raise_probability(0.1, rng);
  const std::size_t after_first = sampler.sample_count();
  EXPECT_NEAR(static_cast<double>(after_first) / n, 0.1, 0.01);
  const auto added = sampler.raise_probability(0.4, rng);
  EXPECT_EQ(sampler.sample_count(), after_first + added.size());
  EXPECT_NEAR(static_cast<double>(sampler.sample_count()) / n, 0.4, 0.015);
  EXPECT_DOUBLE_EQ(sampler.inclusion_probability(), 0.4);
}

TEST(LocalSamplerTest, TopUpReturnsOnlyNewSamples) {
  std::vector<double> values(1000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  LocalSampler sampler(values);
  Rng rng(4);
  const auto first = sampler.raise_probability(0.2, rng);
  const auto second = sampler.raise_probability(0.5, rng);
  for (const auto& s : second) {
    for (const auto& f : first) EXPECT_NE(s.rank, f.rank);
  }
}

TEST(LocalSamplerTest, LoweringProbabilityIsNoOp) {
  LocalSampler sampler({1.0, 2.0, 3.0});
  Rng rng(5);
  sampler.raise_probability(0.9, rng);
  const auto count = sampler.sample_count();
  EXPECT_TRUE(sampler.raise_probability(0.5, rng).empty());
  EXPECT_EQ(sampler.sample_count(), count);
  EXPECT_DOUBLE_EQ(sampler.inclusion_probability(), 0.9);
}

TEST(LocalSamplerTest, RejectsOutOfRangeProbability) {
  LocalSampler sampler({1.0});
  Rng rng(6);
  EXPECT_THROW(sampler.raise_probability(-0.1, rng), std::invalid_argument);
  EXPECT_THROW(sampler.raise_probability(1.1, rng), std::invalid_argument);
}

TEST(LocalSamplerTest, FirstLastValues) {
  LocalSampler sampler({7.0, 2.0, 9.0});
  EXPECT_EQ(sampler.first_value(), 2.0);
  EXPECT_EQ(sampler.last_value(), 9.0);
  LocalSampler empty({});
  EXPECT_THROW(empty.first_value(), std::logic_error);
}

TEST(LocalSamplerTest, ProbabilityOneTakesEverything) {
  std::vector<double> values(500, 1.0);
  LocalSampler sampler(values);
  Rng rng(7);
  sampler.raise_probability(1.0, rng);
  EXPECT_EQ(sampler.sample_count(), 500u);
  // Further raises are no-ops.
  EXPECT_TRUE(sampler.raise_probability(1.0, rng).empty());
}

}  // namespace
}  // namespace prc::sampling
