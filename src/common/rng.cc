#include "common/rng.h"

namespace prc {

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // xoshiro256++ requires a nonzero state; splitmix64 output is zero for at
  // most one of the four words, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ull;
  }
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

Rng Rng::split() noexcept {
  // Derive the child seed from fresh output so parent and child streams
  // decorrelate; mixing through splitmix64 breaks the linear structure.
  std::uint64_t s = (*this)();
  return Rng(splitmix64(s));
}

}  // namespace prc
