// Plan-cache contract: hits replay the miss's plan bit-for-bit, perform no
// search work (no grid evaluations, no amplification calls), infeasible
// verdicts are cached like feasible ones, eviction is least-recently-used,
// and the cache stays coherent under concurrent hit/miss traffic.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/telemetry.h"
#include "dp/optimizer.h"
#include "query/range_query.h"

namespace prc::dp {
namespace {

constexpr std::size_t kNodes = 8;
constexpr std::size_t kTotal = 17568;

std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

// Exact, bit-level equality: the determinism contract is "the same bytes
// the miss computed", not "approximately the same plan".
void expect_bit_identical(const PerturbationPlan& a, const PerturbationPlan& b) {
  EXPECT_EQ(bits(a.alpha), bits(b.alpha));
  EXPECT_EQ(bits(a.delta), bits(b.delta));
  EXPECT_EQ(bits(a.alpha_prime), bits(b.alpha_prime));
  EXPECT_EQ(bits(a.delta_prime), bits(b.delta_prime));
  EXPECT_EQ(bits(a.epsilon), bits(b.epsilon));
  EXPECT_EQ(bits(a.epsilon_amplified), bits(b.epsilon_amplified));
  EXPECT_EQ(bits(a.sensitivity), bits(b.sensitivity));
  EXPECT_EQ(bits(a.laplace_scale), bits(b.laplace_scale));
  EXPECT_EQ(bits(a.sampling_probability), bits(b.sampling_probability));
}

PlanCache::Key key_for(double alpha, double delta, double p) {
  return {bits(alpha), bits(delta), bits(p), kNodes, kTotal, 0,
          static_cast<std::uint64_t>(SensitivityPolicy::kExpected)};
}

std::optional<PerturbationPlan> plan_for(double alpha, double delta, double p) {
  OptimizerConfig config;
  config.plan_cache_capacity = 0;
  return PerturbationOptimizer(config).optimize({alpha, delta}, p, kNodes,
                                                kTotal);
}

TEST(PlanCacheTest, HitIsBitIdenticalAndSkipsAllSearchWork) {
  const PerturbationOptimizer optimizer;  // default config: cache enabled
  const query::AccuracySpec spec{0.05, 0.8};
  const double p = 0.3;

  auto& hits = telemetry::counter("dp.plan_cache_hits");
  auto& misses = telemetry::counter("dp.plan_cache_misses");
  auto& grid = telemetry::counter("dp.grid_evaluations");
  auto& amplification = telemetry::counter("dp.amplification_calls");

  const auto hits0 = hits.value();
  const auto misses0 = misses.value();
  const auto first = optimizer.optimize(spec, p, kNodes, kTotal);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(misses.value(), misses0 + 1);
  EXPECT_EQ(hits.value(), hits0);

  const auto grid1 = grid.value();
  const auto amp1 = amplification.value();
  const auto second = optimizer.optimize(spec, p, kNodes, kTotal);
  ASSERT_TRUE(second.has_value());
  // The hit performs zero grid evaluations and zero amplification calls.
  EXPECT_EQ(grid.value(), grid1);
  EXPECT_EQ(amplification.value(), amp1);
  EXPECT_EQ(hits.value(), hits0 + 1);
  EXPECT_EQ(misses.value(), misses0 + 1);
  expect_bit_identical(*first, *second);
}

TEST(PlanCacheTest, DistinctArgumentsAreDistinctKeys) {
  const PerturbationOptimizer optimizer;
  auto& misses = telemetry::counter("dp.plan_cache_misses");
  const auto misses0 = misses.value();
  (void)optimizer.optimize({0.05, 0.8}, 0.3, kNodes, kTotal);
  (void)optimizer.optimize({0.05, 0.8}, 0.31, kNodes, kTotal);
  (void)optimizer.optimize({0.05, 0.81}, 0.3, kNodes, kTotal);
  (void)optimizer.optimize({0.05, 0.8}, 0.3, kNodes, kTotal + 1);
  EXPECT_EQ(misses.value(), misses0 + 4);
}

TEST(PlanCacheTest, InfeasibleVerdictIsCachedWithoutRecounting) {
  const PerturbationOptimizer optimizer;
  // p far below the Theorem 3.3 threshold: no feasible split exists.
  const query::AccuracySpec spec{0.01, 0.9};
  const double p = 0.001;

  auto& infeasible = telemetry::counter("dp.optimize_infeasible");
  auto& hits = telemetry::counter("dp.plan_cache_hits");

  const auto infeasible0 = infeasible.value();
  EXPECT_FALSE(optimizer.optimize(spec, p, kNodes, kTotal).has_value());
  EXPECT_EQ(infeasible.value(), infeasible0 + 1);

  // The replayed verdict is the cached one: infeasible is not re-counted.
  const auto hits1 = hits.value();
  EXPECT_FALSE(optimizer.optimize(spec, p, kNodes, kTotal).has_value());
  EXPECT_EQ(hits.value(), hits1 + 1);
  EXPECT_EQ(infeasible.value(), infeasible0 + 1);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  const auto k1 = key_for(0.05, 0.8, 0.3);
  const auto k2 = key_for(0.06, 0.8, 0.3);
  const auto k3 = key_for(0.07, 0.8, 0.3);
  EXPECT_FALSE(cache.put(k1, plan_for(0.05, 0.8, 0.3)));
  EXPECT_FALSE(cache.put(k2, plan_for(0.06, 0.8, 0.3)));
  EXPECT_EQ(cache.size(), 2u);

  // Touch k1 so k2 becomes the LRU entry, then insert k3.
  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_TRUE(cache.put(k3, plan_for(0.07, 0.8, 0.3)));
  EXPECT_EQ(cache.size(), 2u);

  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_FALSE(cache.lookup(k2).has_value());
  EXPECT_TRUE(cache.lookup(k3).has_value());

  // The optimizer counts the evictions its own cache reports.
  OptimizerConfig config;
  config.plan_cache_capacity = 2;
  const PerturbationOptimizer optimizer(config);
  auto& evictions = telemetry::counter("dp.plan_cache_evictions");
  const auto evictions0 = evictions.value();
  (void)optimizer.optimize({0.05, 0.8}, 0.3, kNodes, kTotal);
  (void)optimizer.optimize({0.06, 0.8}, 0.3, kNodes, kTotal);
  EXPECT_EQ(evictions.value(), evictions0);
  (void)optimizer.optimize({0.07, 0.8}, 0.3, kNodes, kTotal);
  EXPECT_EQ(evictions.value(), evictions0 + 1);
}

TEST(PlanCacheTest, RacingPutKeepsTheIncumbent) {
  PlanCache cache(4);
  const auto k1 = key_for(0.05, 0.8, 0.3);
  const auto plan = plan_for(0.05, 0.8, 0.3);
  ASSERT_TRUE(plan.has_value());
  cache.put(k1, plan);
  // A second put for the same key (the losing racer) must not duplicate
  // the entry, replace the incumbent's bytes, or report an eviction.
  EXPECT_FALSE(cache.put(k1, plan_for(0.06, 0.8, 0.3)));
  EXPECT_EQ(cache.size(), 1u);
  const auto cached = cache.lookup(k1);
  ASSERT_TRUE(cached.has_value());
  ASSERT_TRUE(cached->has_value());
  expect_bit_identical(**cached, *plan);
}

TEST(PlanCacheTest, CapacityZeroDisablesCaching) {
  PlanCache cache(0);
  const auto k1 = key_for(0.05, 0.8, 0.3);
  cache.put(k1, plan_for(0.05, 0.8, 0.3));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(k1).has_value());

  OptimizerConfig config;
  config.plan_cache_capacity = 0;
  const PerturbationOptimizer optimizer(config);
  auto& misses = telemetry::counter("dp.plan_cache_misses");
  const auto misses0 = misses.value();
  (void)optimizer.optimize({0.05, 0.8}, 0.3, kNodes, kTotal);
  (void)optimizer.optimize({0.05, 0.8}, 0.3, kNodes, kTotal);
  EXPECT_EQ(misses.value(), misses0 + 2);
}

// Run under TSan in CI: many threads hammer one shared optimizer with a
// small set of specs (guaranteed hit/miss races on every key) and each
// must observe exactly the plan the serial reference computes.
TEST(PlanCacheTest, ConcurrentHitsAndMissesStayBitIdentical) {
  const PerturbationOptimizer shared;
  const std::vector<query::AccuracySpec> specs{
      {0.05, 0.8}, {0.06, 0.7}, {0.08, 0.9}, {0.1, 0.5}};
  const double p = 0.3;

  std::vector<std::optional<PerturbationPlan>> reference;
  for (const auto& spec : specs) {
    reference.push_back(plan_for(spec.alpha, spec.delta, p));
    ASSERT_TRUE(reference.back().has_value());
  }

  constexpr int kThreads = 8;
  constexpr int kIterations = 200;
  std::vector<std::thread> workers;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const auto& spec = specs[(t + i) % specs.size()];
        const auto plan = shared.optimize(spec, p, kNodes, kTotal);
        const auto& want = reference[(t + i) % specs.size()];
        // Bit-pattern equality IS the property under test: a cached plan
        // must replay the exact bytes the serial reference computed.
        if (!plan.has_value() ||
            bits(plan->epsilon_amplified) !=  // lint:allow float-eq
                bits(want->epsilon_amplified) ||
            bits(plan->alpha_prime) !=  // lint:allow float-eq
                bits(want->alpha_prime) ||
            bits(plan->laplace_scale) != bits(want->laplace_scale)) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace prc::dp
