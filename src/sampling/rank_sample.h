// Rank-annotated samples: the wire format of the RankCounting protocol.
//
// Each sensor node samples its local multiset and ships (value, local rank)
// pairs to the base station.  The rank is the element's 1-based position in
// the node's sorted local data, which lets the estimator compute exact
// interior counts between any two sampled elements.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace prc::sampling {

/// One sampled element: its value and 1-based rank within the node's sorted
/// local dataset.  Duplicated values get distinct consecutive ranks.
struct RankedValue {
  double value = 0.0;
  std::uint64_t rank = 0;  // 1-based

  friend bool operator==(const RankedValue&, const RankedValue&) = default;
};

/// An immutable, value-ordered set of rank-annotated samples from one node,
/// supporting the predecessor/successor queries of the RankCounting
/// estimator (paper §III-A).
class RankSampleSet {
 public:
  RankSampleSet() = default;

  /// Takes samples in any order; sorts by (value, rank).  Ranks are unique,
  /// so that order is total and equal values order by rank.  Input already
  /// in (value, rank) order (a node's full sample, a top-up delta) costs one
  /// O(n) std::is_sorted pass instead of the O(n log n) sort.  Rank validity
  /// (1-based, collision-free) is verified only when PRC_DCHECK is on
  /// (debug / sanitizer builds), raising prc::ContractViolation (a
  /// std::invalid_argument); release builds trust the sampler/codec
  /// contracts and skip the check — it sits on the station's per-report
  /// ingest path.
  explicit RankSampleSet(std::vector<RankedValue> samples);

  std::size_t size() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }
  const std::vector<RankedValue>& samples() const noexcept { return samples_; }

  /// 𝔭(x): the sampled element with the largest value <= x (ties: largest
  /// rank, i.e. the one closest to x in sorted order).  nullopt if none.
  std::optional<RankedValue> predecessor(double x) const;

  /// 𝔰(x): the sampled element with the smallest value > x (ties: smallest
  /// rank).  nullopt if none.
  std::optional<RankedValue> successor(double x) const;

  /// A fresh set holding this set's samples and `other`'s (e.g. a top-up
  /// delta); this set is left as it is, so a reader sharing it never sees
  /// it change.  Rank collisions are caught only when PRC_DCHECK is on,
  /// like the constructor.
  RankSampleSet merged(const RankSampleSet& other) const;

 private:
  /// Debug-only full validation (see constructor comment).
  void check_invariants() const;

  std::vector<RankedValue> samples_;  // sorted by (value, rank)
};

}  // namespace prc::sampling
