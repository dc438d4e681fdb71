// BitKeyedLru contract beyond what the plan- and quote-cache tests check:
// keys compare by bit pattern (so +0.0 and -0.0 are distinct), put()
// reports an eviction exactly when an insert overflows the capacity, and
// capacity 0 stores nothing.
#include "common/bit_keyed_lru.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

namespace prc {
namespace {

using Lru = BitKeyedLru<2, int>;

Lru::Key key(double a, double b) {
  return {std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b)};
}

TEST(BitKeyedLruTest, SignedZerosAreDistinctKeys) {
  Lru cache(4);
  EXPECT_FALSE(cache.put(key(0.0, 1.0), 1));
  EXPECT_FALSE(cache.lookup(key(-0.0, 1.0)).has_value());
  EXPECT_FALSE(cache.put(key(-0.0, 1.0), 2));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup(key(0.0, 1.0)), 1);
  EXPECT_EQ(cache.lookup(key(-0.0, 1.0)), 2);
}

TEST(BitKeyedLruTest, PutReportsEvictionExactlyWhenOverCapacity) {
  Lru cache(3);
  EXPECT_FALSE(cache.put(key(1.0, 0.0), 1));
  EXPECT_FALSE(cache.put(key(2.0, 0.0), 2));
  EXPECT_FALSE(cache.put(key(3.0, 0.0), 3));
  EXPECT_EQ(cache.size(), 3u);
  // A key already present keeps its incumbent and evicts nothing.
  EXPECT_FALSE(cache.put(key(1.0, 0.0), 10));
  EXPECT_EQ(cache.lookup(key(1.0, 0.0)), 1);
  // The fourth distinct key overflows: the LRU entry (2) goes.
  EXPECT_TRUE(cache.put(key(4.0, 0.0), 4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.lookup(key(2.0, 0.0)).has_value());
  EXPECT_TRUE(cache.put(key(5.0, 0.0), 5));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(BitKeyedLruTest, CapacityZeroStoresNothing) {
  Lru cache(0);
  EXPECT_FALSE(cache.put(key(1.0, 0.0), 1));
  EXPECT_FALSE(cache.lookup(key(1.0, 0.0)).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace prc
