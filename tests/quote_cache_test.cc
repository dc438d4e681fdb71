// Quote-cache contract: a hit returns exactly the double the underlying
// pricing function computes (receipts cannot drift between cached and
// direct pricing), eviction is least-recently-used, capacity 0 disables the
// memo, the cache is coherent under concurrent pricing, and the broker
// actually routes its quotes through it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "data/partition.h"
#include "dp/private_counting.h"
#include "iot/network.h"
#include "market/broker.h"
#include "pricing/pricing.h"
#include "pricing/variance_model.h"

namespace prc::pricing {
namespace {

constexpr std::size_t kNodes = 8;
constexpr std::size_t kTotal = 17568;
const query::AccuracySpec kReference{0.1, 0.5};

InverseVariancePricing make_pricing() {
  return InverseVariancePricing(VarianceModel(kTotal, kNodes), kReference,
                                100.0, 1.0);
}

std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

TEST(QuoteCacheTest, HitReturnsTheExactMissPrice) {
  const auto pricing = make_pricing();
  QuoteCache cache(16);
  auto& hits = telemetry::counter("pricing.quote_cache_hits");
  auto& misses = telemetry::counter("pricing.quote_cache_misses");
  auto& quotes = telemetry::counter("pricing.quotes");

  const query::AccuracySpec spec{0.07, 0.8};
  const auto hits0 = hits.value();
  const auto misses0 = misses.value();

  const double direct = pricing.price(spec);
  const double first = cached_price(cache, pricing, spec);
  EXPECT_EQ(misses.value(), misses0 + 1);

  const auto quotes1 = quotes.value();
  const double second = cached_price(cache, pricing, spec);
  EXPECT_EQ(hits.value(), hits0 + 1);
  // The hit did not evaluate the pricing function again.
  EXPECT_EQ(quotes.value(), quotes1);
  EXPECT_EQ(bits(first), bits(direct));
  EXPECT_EQ(bits(second), bits(direct));
}

TEST(QuoteCacheTest, EvictsLeastRecentlyUsed) {
  const auto pricing = make_pricing();
  QuoteCache cache(2);
  auto& misses = telemetry::counter("pricing.quote_cache_misses");

  const query::AccuracySpec a{0.05, 0.8};
  const query::AccuracySpec b{0.06, 0.8};
  const query::AccuracySpec c{0.07, 0.8};
  (void)cached_price(cache, pricing, a);
  (void)cached_price(cache, pricing, b);
  (void)cached_price(cache, pricing, a);  // refresh a: b is now the LRU entry
  (void)cached_price(cache, pricing, c);  // evicts b
  EXPECT_EQ(cache.size(), 2u);

  const auto misses0 = misses.value();
  (void)cached_price(cache, pricing, a);  // still cached
  EXPECT_EQ(misses.value(), misses0);
  (void)cached_price(cache, pricing, b);  // evicted: must re-price
  EXPECT_EQ(misses.value(), misses0 + 1);
}

TEST(QuoteCacheTest, CapacityZeroDisablesMemoization) {
  const auto pricing = make_pricing();
  QuoteCache cache(0);
  auto& misses = telemetry::counter("pricing.quote_cache_misses");
  const auto misses0 = misses.value();
  const query::AccuracySpec spec{0.07, 0.8};
  const double first = cached_price(cache, pricing, spec);
  const double second = cached_price(cache, pricing, spec);
  EXPECT_EQ(misses.value(), misses0 + 2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(bits(first), bits(second));
}

TEST(QuoteCacheTest, ConcurrentPricingMatchesDirectPricing) {
  const auto pricing = make_pricing();
  QuoteCache cache(8);
  std::vector<query::AccuracySpec> specs;
  std::vector<double> expected;
  Rng rng(99);
  for (int i = 0; i < 16; ++i) {
    specs.push_back({rng.uniform(0.02, 0.2), rng.uniform(0.4, 0.95)});
    expected.push_back(pricing.price(specs.back()));
  }

  constexpr int kThreads = 8;
  constexpr int kIterations = 400;
  std::vector<std::thread> workers;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const std::size_t index = (t * 7 + i) % specs.size();
        // Bit-pattern equality IS the property under test: a cached price
        // must be the exact double direct pricing computes.
        const double price = cached_price(cache, pricing, specs[index]);
        if (bits(price) != bits(expected[index])) {  // lint:allow float-eq
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

TEST(QuoteCacheTest, BrokerRoutesQuotesThroughTheCache) {
  std::vector<double> values(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) values[i] = static_cast<double>(i);
  Rng rng(3);
  iot::FlatNetwork network(data::partition_values(
      values, kNodes, data::PartitionStrategy::kRoundRobin, rng));
  dp::PrivateRangeCounter counter(network);
  const market::DataBroker broker(
      counter, std::make_unique<InverseVariancePricing>(
                   VarianceModel(kTotal, kNodes), kReference, 100.0, 1.0));

  static telemetry::Counter& market_quotes =
      telemetry::counter("market.quotes");
  static telemetry::Counter& price_evals = telemetry::counter("pricing.quotes");

  const query::AccuracySpec spec{0.07, 0.8};
  const double first = broker.quote(spec);

  const auto market0 = market_quotes.value();
  const auto evals0 = price_evals.value();
  const double second = broker.quote(spec);
  // Every quote() call counts as a market quote, but the repeated contract
  // is served from the memo without re-evaluating the pricing function.
  EXPECT_EQ(market_quotes.value(), market0 + 1);
  EXPECT_EQ(price_evals.value(), evals0);
  EXPECT_EQ(bits(first), bits(second));
  EXPECT_GE(broker.quote_cache().size(), 1u);
}

}  // namespace
}  // namespace prc::pricing
