// Per-node Bernoulli sampling with incremental top-up.
//
// The paper's protocol keeps one sample set per node and, when a query needs
// a higher sampling probability than was used so far, collects *more* samples
// rather than resampling from scratch ("if the existing samples are unable to
// satisfy the query accuracy requirement, more samples should be drawn").
// Raising the inclusion probability from p1 to p2 while keeping marginal
// inclusion Bernoulli(p2) is done by flipping each still-unsampled element
// with probability (p2 - p1) / (1 - p1).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sampling/rank_sample.h"

namespace prc::sampling {

/// Owns one node's sorted local data and its sampling state.
class LocalSampler {
 public:
  /// Copies and sorts the node's local values.  Ranks are positions in this
  /// sorted order (1-based); duplicates get consecutive distinct ranks.
  /// Throws prc::ContractViolation if any value is NaN or infinite.
  explicit LocalSampler(std::vector<double> values);

  std::size_t data_count() const noexcept { return sorted_.size(); }

  /// Current inclusion probability (0 before the first round).
  double inclusion_probability() const noexcept { return p_; }

  /// Number of currently sampled elements.
  std::size_t sample_count() const noexcept { return sampled_count_; }

  /// Raises the inclusion probability to `p` (no-op if p <= current) and
  /// returns only the *newly* selected samples — what the node would transmit
  /// this round.  Throws std::invalid_argument unless p is in [0, 1].
  std::vector<RankedValue> raise_probability(double p, Rng& rng);

  /// Continuous collection: merges newly observed values into the local
  /// multiset, sampling each with the current inclusion probability so the
  /// marginal inclusion law stays Bernoulli(p) for every element.  Ranks of
  /// existing samples shift, so after an append the node must retransmit its
  /// full sample (current_sample()) rather than a delta.
  ///
  /// One Bernoulli(p) draw per newcomer, in arrival order.  O(m log n)
  /// comparisons plus one pass of memory traffic for n held and m new
  /// values: the newcomers are sorted, then placed from the back, each
  /// shifting the block of held values above it with one memmove.  Ties:
  /// the result equals a stable sort by value of "existing elements, then
  /// newcomers in arrival order", so existing copies of a value keep the
  /// lower ranks and equal newcomers rank in arrival order.  Throws
  /// prc::ContractViolation, with the sampler and `rng` untouched, if any
  /// value is NaN or infinite.
  void append(const std::vector<double>& values, Rng& rng);

  /// The full current sample with ranks.
  RankSampleSet current_sample() const;

  /// First (smallest) and last (largest) local values; used by the estimator
  /// cases where the predecessor/successor does not exist.  Requires
  /// data_count() > 0.
  double first_value() const;
  double last_value() const;

 private:
  std::vector<double> sorted_;
  std::vector<std::uint8_t> selected_;  // bytes, not packed bits: memmove-able
  std::size_t sampled_count_ = 0;
  double p_ = 0.0;
};

}  // namespace prc::sampling
