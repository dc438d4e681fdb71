#include "sampling/rank_sample.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"

namespace prc::sampling {
namespace {

bool value_rank_less(const RankedValue& a, const RankedValue& b) {
  if (a.value != b.value) return a.value < b.value;
  return a.rank < b.rank;
}

}  // namespace

RankSampleSet::RankSampleSet(std::vector<RankedValue> samples)
    : samples_(std::move(samples)) {
  // Ranks are unique, so (value, rank) order is the only order a sort could
  // produce: input that already has it (a node's full sample, a top-up
  // delta) skips the sort.
  if (!std::is_sorted(samples_.begin(), samples_.end(), value_rank_less)) {
    std::sort(samples_.begin(), samples_.end(), value_rank_less);
  }
  check_invariants();
}

// Every station-side ingest constructs or merges a RankSampleSet, so this
// validation sits squarely on the collection hot path; the hash-set walk
// costs an allocation plus O(n) hashing per call (see the
// rank_sample_validation micro-benchmark).  It therefore rides PRC_DCHECK:
// debug and sanitizer builds verify every set, release builds trust the
// LocalSampler/codec contracts that produced the ranks.
void RankSampleSet::check_invariants() const {
#if PRC_DCHECK_IS_ON()
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(samples_.size());
  for (const auto& s : samples_) {
    PRC_DCHECK(s.rank != 0) << "rank sample: ranks are 1-based";
    PRC_DCHECK(seen.insert(s.rank).second)
        << "rank sample: duplicate rank " << s.rank;
  }
#endif
}

std::optional<RankedValue> RankSampleSet::predecessor(double x) const {
  // Last element with value <= x.  upper_bound over values gives the first
  // element with value > x; the predecessor is the one before it.
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), x,
      [](double v, const RankedValue& s) { return v < s.value; });
  if (it == samples_.begin()) return std::nullopt;
  return *(it - 1);
}

std::optional<RankedValue> RankSampleSet::successor(double x) const {
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), x,
      [](double v, const RankedValue& s) { return v < s.value; });
  if (it == samples_.end()) return std::nullopt;
  return *it;
}

RankSampleSet RankSampleSet::merged(const RankSampleSet& other) const {
  RankSampleSet out;
  out.samples_.reserve(samples_.size() + other.samples_.size());
  std::merge(samples_.begin(), samples_.end(), other.samples_.begin(),
             other.samples_.end(), std::back_inserter(out.samples_),
             value_rank_less);
  out.check_invariants();
  return out;
}

}  // namespace prc::sampling
