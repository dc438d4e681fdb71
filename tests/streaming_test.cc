// Continuous data collection: appends, dirty tracking, full-resync rounds,
// and estimator correctness over a stream of arrivals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/statistics.h"
#include "estimator/rank_counting.h"
#include "iot/network.h"
#include "query/range_query.h"
#include "sampling/local_sampler.h"
#include "sampling/rank_sample.h"

namespace prc {
namespace {

TEST(LocalSamplerAppendTest, GrowsDataAndKeepsRanksSorted) {
  sampling::LocalSampler sampler({2.0, 6.0, 10.0});
  Rng rng(1);
  sampler.raise_probability(1.0, rng);
  sampler.append({4.0, 8.0}, rng);
  EXPECT_EQ(sampler.data_count(), 5u);
  const auto set = sampler.current_sample();
  ASSERT_EQ(set.size(), 5u);  // p = 1: newcomers all sampled
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(set.samples()[i].rank, i + 1);
  }
  EXPECT_EQ(set.samples()[1].value, 4.0);  // rank 2 after re-sort
}

TEST(LocalSamplerAppendTest, EmptyAppendIsNoOp) {
  sampling::LocalSampler sampler({1.0});
  Rng rng(2);
  sampler.raise_probability(0.5, rng);
  const auto count = sampler.sample_count();
  sampler.append({}, rng);
  EXPECT_EQ(sampler.data_count(), 1u);
  EXPECT_EQ(sampler.sample_count(), count);
}

TEST(LocalSamplerAppendTest, NewcomersSampledAtCurrentProbability) {
  sampling::LocalSampler sampler(std::vector<double>(1000, 1.0));
  Rng rng(3);
  sampler.raise_probability(0.3, rng);
  const std::size_t before = sampler.sample_count();
  std::vector<double> fresh(20000, 2.0);
  sampler.append(fresh, rng);
  const double newcomer_rate =
      static_cast<double>(sampler.sample_count() - before) / 20000.0;
  EXPECT_NEAR(newcomer_rate, 0.3, 0.015);
}

TEST(LocalSamplerAppendTest, AppendThenTopUpKeepsMarginalInclusion) {
  // append at p=0.2 then raise to 0.5: every element (old or new) must end
  // up included with probability 0.5.
  const std::size_t n = 20000;
  std::vector<double> base(n, 1.0);
  sampling::LocalSampler sampler(base);
  Rng rng(4);
  sampler.raise_probability(0.2, rng);
  sampler.append(std::vector<double>(n, 2.0), rng);
  sampler.raise_probability(0.5, rng);
  EXPECT_NEAR(static_cast<double>(sampler.sample_count()) /
                  static_cast<double>(2 * n),
              0.5, 0.01);
}

// Reference model of LocalSampler: (value, selected) pairs, all re-sorted on
// every append.  `stable` picks std::stable_sort, which defines the tie rule
// append must follow, or std::sort, whose order of equal values is
// unspecified and which must agree with it whenever no value repeats.
class ReferenceSampler {
 public:
  ReferenceSampler(std::vector<double> values, bool stable) : stable_(stable) {
    std::sort(values.begin(), values.end());
    for (double v : values) elements_.emplace_back(v, false);
  }

  void raise_probability(double p, Rng& rng) {
    if (p <= p_) return;
    const double conditional = p_ >= 1.0 ? 0.0 : (p - p_) / (1.0 - p_);
    for (auto& [value, selected] : elements_) {
      if (!selected && rng.bernoulli(conditional)) selected = true;
    }
    p_ = p;
  }

  void append(const std::vector<double>& values, Rng& rng) {
    for (double v : values) elements_.emplace_back(v, rng.bernoulli(p_));
    const auto by_value = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    if (stable_) {
      std::stable_sort(elements_.begin(), elements_.end(), by_value);
    } else {
      std::sort(elements_.begin(), elements_.end(), by_value);
    }
  }

  // Every element with its rank, and the selected ones.
  std::vector<sampling::RankedValue> all() const {
    std::vector<sampling::RankedValue> out;
    for (std::size_t i = 0; i < elements_.size(); ++i) {
      out.push_back({elements_[i].first, i + 1});
    }
    return out;
  }
  std::vector<sampling::RankedValue> sample() const {
    std::vector<sampling::RankedValue> out;
    for (std::size_t i = 0; i < elements_.size(); ++i) {
      if (elements_[i].second) out.push_back({elements_[i].first, i + 1});
    }
    return out;
  }

 private:
  bool stable_;
  std::vector<std::pair<double, bool>> elements_;
  double p_ = 0.0;
};

// Every element of `sampler` with its rank: a copy raised to p = 1 samples
// all of them, leaving the sampler and its generator untouched.
std::vector<sampling::RankedValue> all_elements(
    const sampling::LocalSampler& sampler) {
  sampling::LocalSampler copy = sampler;
  Rng unused(0);
  copy.raise_probability(1.0, unused);
  return copy.current_sample().samples();
}

void expect_same_state(const sampling::LocalSampler& sampler,
                       const ReferenceSampler& reference) {
  const auto sample = reference.sample();
  EXPECT_EQ(all_elements(sampler), reference.all());
  EXPECT_EQ(sampler.current_sample().samples(), sample);
  EXPECT_EQ(sampler.sample_count(), sample.size());
}

TEST(LocalSamplerAppendTest, MergeMatchesStableSortOracle) {
  for (std::uint64_t trial = 0; trial < 1200; ++trial) {
    SCOPED_TRACE(trial);
    Rng gen(trial + 1);
    // Even trials draw from eight values, so ties are everywhere; odd
    // trials never repeat a value.
    const bool ties = trial % 2 == 0;
    std::set<double> used;
    const auto reading = [&] {
      if (ties) return static_cast<double>(gen.uniform_int(0, 7));
      double v = gen.uniform(0.0, 1000.0);
      while (!used.insert(v).second) v = gen.uniform(0.0, 1000.0);
      return v;
    };
    const auto batch = [&](std::int64_t max_size) {
      std::vector<double> values(
          static_cast<std::size_t>(gen.uniform_int(0, max_size)));
      for (auto& v : values) v = reading();
      return values;
    };

    const auto initial = batch(60);
    sampling::LocalSampler sampler(initial);
    ReferenceSampler stable(initial, /*stable=*/true);
    ReferenceSampler unstable(initial, /*stable=*/false);
    Rng rng(trial * 31 + 7);
    Rng stable_rng = rng;
    Rng unstable_rng = rng;
    double p = 0.0;
    for (int step = 0; step < 8; ++step) {
      if (gen.uniform_int(0, 2) == 0) {
        p += gen.uniform(0.0, 1.0 - p) / 2.0;
        sampler.raise_probability(p, rng);
        stable.raise_probability(p, stable_rng);
        unstable.raise_probability(p, unstable_rng);
      } else {
        const auto values = batch(40);
        sampler.append(values, rng);
        stable.append(values, stable_rng);
        unstable.append(values, unstable_rng);
      }
      expect_same_state(sampler, stable);
      if (!ties) {
        // Without ties the old full re-sort gives the same result.
        EXPECT_EQ(unstable.all(), stable.all());
        EXPECT_EQ(unstable.sample(), stable.sample());
      }
    }
    // Same number of draws consumed: the generators are still in step.
    const auto next = stable_rng();
    EXPECT_EQ(rng(), next);
    if (!ties) {
      EXPECT_EQ(unstable_rng(), next);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(LocalSamplerAppendTest, BlockMergeMatchesReferenceAtEveryProbability) {
  // Randomized batches against the stable-sort reference: negative values,
  // duplicates and ties with held values, appends into an empty sampler,
  // and appends at p = 0 (nothing sampled), p = 1 (everything sampled) and
  // in between.
  for (std::uint64_t trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE(trial);
    Rng gen(trial + 5000);
    const auto batch = [&](std::int64_t max_size) {
      std::vector<double> values(
          static_cast<std::size_t>(gen.uniform_int(0, max_size)));
      for (auto& v : values) {
        // Half the readings repeat one of 13 values around zero; the rest
        // are fresh, mostly distinct doubles of either sign.
        v = gen.bernoulli(0.5)
                ? static_cast<double>(gen.uniform_int(-6, 6)) * 0.5
                : gen.uniform(-100.0, 100.0);
      }
      return values;
    };
    const auto initial = trial % 3 == 0 ? std::vector<double>{} : batch(50);
    sampling::LocalSampler sampler(initial);
    ReferenceSampler reference(initial, /*stable=*/true);
    Rng rng(trial * 17 + 3);
    Rng reference_rng = rng;
    // Stay at p = 0, jump to p = 1, or climb in steps that may reach 1.
    const int path = static_cast<int>(trial % 3);
    double p = 0.0;
    for (int step = 0; step < 10; ++step) {
      if (path != 0 && step % 3 == 1 && p < 1.0) {
        p = path == 1 ? 1.0 : std::min(1.0, p + gen.uniform(0.1, 0.5));
        sampler.raise_probability(p, rng);
        reference.raise_probability(p, reference_rng);
      } else {
        const auto values = batch(30);
        sampler.append(values, rng);
        reference.append(values, reference_rng);
      }
      expect_same_state(sampler, reference);
      if (path == 0) {
        EXPECT_EQ(sampler.sample_count(), 0u);
      }
      if (p >= 1.0) {
        EXPECT_EQ(sampler.sample_count(), sampler.data_count());
      }
    }
    // The same draws were consumed: the callers' generators are in step.
    EXPECT_EQ(rng(), reference_rng());
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(LocalSamplerAppendTest, EqualValuesRankExistingFirstThenArrivalOrder) {
  // For each seed, predict every draw on a copy of the generator, then check
  // that the sampled ranks follow "existing copies, then newcomers in
  // arrival order" among equal values.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE(seed);
    sampling::LocalSampler sampler({2.0, 5.0, 2.0});
    Rng rng(seed);
    Rng predict = rng;
    sampler.raise_probability(0.5, rng);
    // Existing order after the constructor's sort: 2.0, 2.0, 5.0.
    const bool e1 = predict.bernoulli(0.5);
    const bool e2 = predict.bernoulli(0.5);
    const bool e5 = predict.bernoulli(0.5);
    // Newcomers in arrival order: 2.0 (a), 7.0 (b), 2.0 (c), 1.0 (d).
    const bool a = predict.bernoulli(0.5);
    const bool b = predict.bernoulli(0.5);
    const bool c = predict.bernoulli(0.5);
    const bool d = predict.bernoulli(0.5);
    sampler.append({2.0, 7.0, 2.0, 1.0}, rng);

    // Expected order: 1.0 d | 2.0 e1, e2, a, c | 5.0 e5 | 7.0 b.
    const std::vector<std::pair<double, bool>> expected = {
        {1.0, d}, {2.0, e1}, {2.0, e2}, {2.0, a},
        {2.0, c}, {5.0, e5}, {7.0, b}};
    std::vector<sampling::RankedValue> want;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (expected[i].second) want.push_back({expected[i].first, i + 1});
    }
    EXPECT_EQ(sampler.current_sample().samples(), want);
    EXPECT_EQ(rng(), predict());
  }
}

TEST(RankSampleSetTest, OrderedAndShuffledInputBuildTheSameSet) {
  std::vector<double> values;
  Rng gen(9);
  for (int i = 0; i < 500; ++i) {
    values.push_back(static_cast<double>(gen.uniform_int(0, 40)));
  }
  sampling::LocalSampler sampler(values);
  Rng rng(10);
  sampler.raise_probability(0.6, rng);
  const auto ordered = sampler.current_sample().samples();
  ASSERT_TRUE(std::is_sorted(
      ordered.begin(), ordered.end(), [](const auto& x, const auto& y) {
        return x.value != y.value ? x.value < y.value : x.rank < y.rank;
      }));
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto shuffled = ordered;
    Rng shuffle_rng(seed);
    std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
    ASSERT_NE(shuffled, ordered);
    EXPECT_EQ(sampling::RankSampleSet(shuffled).samples(),
              sampling::RankSampleSet(ordered).samples());
  }
  EXPECT_EQ(sampling::RankSampleSet(ordered).samples(), ordered);
}

TEST(SensorNodeStreamingTest, DirtyFlagLifecycle) {
  iot::SensorNode node(0, {1.0, 2.0}, Rng(5));
  EXPECT_FALSE(node.dirty());
  node.append_data({3.0});
  EXPECT_TRUE(node.dirty());
  const auto report = node.full_report();
  EXPECT_FALSE(node.dirty());
  EXPECT_EQ(report.data_count, 3u);
}

TEST(FlatNetworkStreamingTest, AppendUpdatesTotalsAfterRefresh) {
  iot::FlatNetwork network({{1.0, 2.0, 3.0}, {4.0, 5.0}});
  network.ensure_sampling_probability(0.5);
  EXPECT_EQ(network.base_station().total_data_count(), 5u);
  network.append_data(0, {10.0, 11.0});
  EXPECT_EQ(network.total_data_count(), 7u);
  // The station is stale until refresh.
  EXPECT_EQ(network.base_station().total_data_count(), 5u);
  EXPECT_EQ(network.refresh_samples(), 1u);
  EXPECT_EQ(network.base_station().total_data_count(), 7u);
  // Nothing dirty left.
  EXPECT_EQ(network.refresh_samples(), 0u);
}

TEST(FlatNetworkStreamingTest, RefreshChargesFullResend) {
  iot::FlatNetwork network({std::vector<double>(2000, 1.0)});
  network.ensure_sampling_probability(0.5);
  const auto bytes_before = network.stats().uplink_bytes;
  network.append_data(0, std::vector<double>(100, 2.0));
  network.refresh_samples();
  // Full sample (~1050 values * 16 bytes) re-shipped, not just the delta.
  EXPECT_GT(network.stats().uplink_bytes - bytes_before, 900u * 16u);
}

TEST(FlatNetworkStreamingTest, OfflineNodeDefersResync) {
  iot::FlatNetwork network({{1.0, 2.0}, {3.0, 4.0}});
  network.ensure_sampling_probability(0.5);
  network.append_data(1, {5.0});
  network.set_node_online(1, false);
  EXPECT_EQ(network.refresh_samples(), 0u);  // deferred
  network.set_node_online(1, true);
  EXPECT_EQ(network.refresh_samples(), 1u);
  EXPECT_EQ(network.base_station().total_data_count(), 5u);
}

TEST(FlatNetworkStreamingTest, EstimatesStayUnbiasedAcrossArrivals) {
  // Stream batches into the network and check the estimator tracks the
  // growing truth: mean estimate over trials stays within CI of the truth.
  const double p = 0.25;
  const query::RangeQuery range{100.5, 700.5};
  RunningStats final_estimates;
  const int trials = 600;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::vector<double>> initial(2);
    for (int v = 0; v < 400; ++v) {
      initial[v % 2].push_back(static_cast<double>(v));
    }
    iot::NetworkConfig config;
    config.seed = static_cast<std::uint64_t>(t) * 7 + 1;
    iot::FlatNetwork network(std::move(initial), config);
    network.ensure_sampling_probability(p);
    // Two arrival batches extend the domain to 0..799.
    std::vector<double> batch1, batch2;
    for (int v = 400; v < 600; ++v) batch1.push_back(static_cast<double>(v));
    for (int v = 600; v < 800; ++v) batch2.push_back(static_cast<double>(v));
    network.append_data(0, batch1);
    network.refresh_samples();
    network.append_data(1, batch2);
    network.refresh_samples();
    final_estimates.add(network.rank_counting_estimate(range));
  }
  const double truth = 600.0;  // values 101..700
  const double var_bound = 8.0 * 2.0 / (p * p);
  EXPECT_NEAR(final_estimates.mean(), truth,
              5.0 * std::sqrt(var_bound / trials));
  EXPECT_LE(final_estimates.variance(), var_bound * 1.1);
}

TEST(FlatNetworkStreamingTest, AppendToUnknownNodeThrows) {
  iot::FlatNetwork network(std::vector<std::vector<double>>{{1.0}});
  EXPECT_THROW(network.append_data(5, {2.0}), std::out_of_range);
}

}  // namespace
}  // namespace prc
