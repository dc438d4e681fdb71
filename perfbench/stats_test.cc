#include "stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(0), 0.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(100), 90.0);   // exactly 10 epochs beyond p90
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);  // exactly 10 sales beyond p99
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
}

TEST(TailPercentile, FewestSamplesThatSupportIt) {
  EXPECT_EQ(samples_for_percentile(50.0), 20u);
  EXPECT_EQ(samples_for_percentile(90.0), 100u);
  EXPECT_EQ(samples_for_percentile(99.0), 1000u);
}

TEST(PhaseSamples, PoolsTheWholePhase) {
  PhaseSamples s;
  // A fast stretch, a slow one, and a fast one again.
  for (const double level : {10.0, 100.0, 12.0}) {
    for (int i = 0; i < 20; ++i) s.add(level + i);
    s.add_work(40.0, 2.0 * level / 10.0);
  }
  EXPECT_EQ(s.count(), 60u);
  // Sorted, the 30th and 31st of the 60 samples are 25 and 26.
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 25.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 119.0);
  EXPECT_DOUBLE_EQ(s.rate(), 120.0 / 24.4);
  EXPECT_EQ(s.all().size(), 60u);
  EXPECT_EQ(s.all().back(), 31.0);
  EXPECT_EQ(PhaseSamples().quantile(0.5), 0.0);
  EXPECT_EQ(PhaseSamples().rate(), 0.0);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 9.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 9.0}, 1.0), 9.0);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto a = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.median, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
  const auto b = quartiles({4, 1, 2});
  EXPECT_DOUBLE_EQ(b.q1, 1.0);
  EXPECT_DOUBLE_EQ(b.median, 2.0);
  EXPECT_DOUBLE_EQ(b.q3, 4.0);
  // statistics.quantiles([5, 1], n=4) == [-0.0, 3.0, 6.0] (extrapolates)
  const auto c = quartiles({5, 1});
  EXPECT_DOUBLE_EQ(c.q1, 0.0);
  EXPECT_DOUBLE_EQ(c.median, 3.0);
  EXPECT_DOUBLE_EQ(c.q3, 6.0);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(UnionLength, MergesOverlapsAndClips) {
  EXPECT_EQ(union_length({}, 0, 100), 0);
  EXPECT_EQ(union_length({{10, 20}, {15, 30}, {40, 50}}, 0, 100), 30);
  EXPECT_EQ(union_length({{-5, 10}, {90, 120}}, 0, 100), 20);
  EXPECT_EQ(union_length({{10, 20}, {12, 18}}, 0, 100), 10);
}

TEST(SelfTimes, SubtractsTheCoveredPartOfTheParent) {
  // parent [0, 100) with children [10, 30) and [50, 60): self = 70.
  // The first child has a grandchild [12, 20) that counts against the
  // child, not the parent.
  const std::vector<SpanTiming> spans = {
      {1, 0, 0, 100},  {2, 1, 10, 20}, {3, 1, 50, 10},
      {4, 2, 12, 8},   {5, 0, 200, 5},
  };
  const auto self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[1], 12);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 8);
  EXPECT_EQ(self[4], 5);
}

TEST(SelfTimes, OverlappingChildrenCountOnce) {
  // Children from a parallel region may overlap in time.
  const std::vector<SpanTiming> spans = {
      {1, 0, 0, 100}, {2, 1, 10, 40}, {3, 1, 30, 40}, {4, 1, 90, 30}};
  EXPECT_EQ(self_times(spans)[0], 100 - 60 - 10);
}

TEST(FailedShare, CountsFailuresAgainstAttempts) {
  EXPECT_DOUBLE_EQ(failed_share(200, 0), 0.0);
  EXPECT_DOUBLE_EQ(failed_share(200, 5), 0.025);
  EXPECT_DOUBLE_EQ(failed_share(3, 3), 1.0);
  EXPECT_THROW(failed_share(0, 0), std::invalid_argument);
  EXPECT_THROW(failed_share(2, 3), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
