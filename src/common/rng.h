// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic component in prc (samplers, noise mechanisms, workload
// generators, failure injectors) draws from an explicitly-passed Rng so that
// experiments are reproducible bit-for-bit from a single master seed.
//
// The generator is xoshiro256++ seeded via SplitMix64, the combination
// recommended by the xoshiro authors.  We do not use std::mt19937 because its
// seeding is error-prone (a single 32-bit seed) and its state is large; and we
// never use a shared global generator because that couples unrelated
// experiments' random streams.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace prc {

/// SplitMix64 step; used to expand a 64-bit seed into generator state and to
/// derive independent child seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256++ generator.  Satisfies std::uniform_random_bit_generator, so it
/// can also be plugged into <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 64 uniformly random bits.  Inline, like uniform() and
  /// bernoulli(): samplers call them once per element in their hot loops.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).  Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive).  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial with success probability `p` (clamped to [0, 1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Derives an independent child generator.  Children produced by distinct
  /// calls have statistically independent streams; this is how per-node /
  /// per-trial generators are created from a master seed.
  Rng split() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

}  // namespace prc
