#include "sampling/local_sampler.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace prc::sampling {

LocalSampler::LocalSampler(std::vector<double> values)
    : sorted_(std::move(values)), selected_(sorted_.size(), 0) {
  for (double v : sorted_) PRC_CHECK_FINITE(v);
  std::sort(sorted_.begin(), sorted_.end());
}

std::vector<RankedValue> LocalSampler::raise_probability(double p, Rng& rng) {
  PRC_CHECK(std::isfinite(p) && p >= 0.0 && p <= 1.0)
      << "inclusion probability must be in [0, 1], got " << p;
  std::vector<RankedValue> added;
  if (p <= p_) return added;
  // Conditional inclusion probability for elements not yet selected.
  const double conditional =
      p_ >= 1.0 ? 0.0 : (p - p_) / (1.0 - p_);
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    if (selected_[i]) continue;
    if (rng.bernoulli(conditional)) {
      selected_[i] = 1;
      ++sampled_count_;
      added.push_back(RankedValue{sorted_[i], static_cast<std::uint64_t>(i + 1)});
    }
  }
  p_ = p;
  return added;
}

void LocalSampler::append(const std::vector<double>& values, Rng& rng) {
  if (values.empty()) return;
  for (double v : values) PRC_CHECK_FINITE(v);
  // Draw each newcomer at the current p in arrival order and sort only the
  // newcomers (stably, so equal values keep arrival order).  Then place
  // them from the back: the held values strictly greater than the newcomer
  // (found with upper_bound, so held copies of its value keep the lower
  // ranks) slide up by the number of newcomers still to place, in one
  // memmove per array.  Every held value moves at most once.
  std::vector<std::pair<double, std::uint8_t>> fresh;
  fresh.reserve(values.size());
  for (double v : values) {
    const bool take = rng.bernoulli(p_);
    fresh.emplace_back(v, static_cast<std::uint8_t>(take));
    if (take) ++sampled_count_;
  }
  std::stable_sort(
      fresh.begin(), fresh.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t held = sorted_.size();
  sorted_.resize(held + fresh.size());
  selected_.resize(held + fresh.size());
  for (std::size_t j = fresh.size(); j > 0; --j) {
    const auto greater = static_cast<std::size_t>(
        std::upper_bound(sorted_.begin(),
                         sorted_.begin() + static_cast<std::ptrdiff_t>(held),
                         fresh[j - 1].first) -
        sorted_.begin());
    const std::size_t block = held - greater;
    std::memmove(sorted_.data() + greater + j, sorted_.data() + greater,
                 block * sizeof(double));
    std::memmove(selected_.data() + greater + j, selected_.data() + greater,
                 block);
    sorted_[greater + j - 1] = fresh[j - 1].first;
    selected_[greater + j - 1] = fresh[j - 1].second;
    held = greater;
  }
}

RankSampleSet LocalSampler::current_sample() const {
  std::vector<RankedValue> samples;
  samples.reserve(sampled_count_);
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    if (selected_[i]) {
      samples.push_back(
          RankedValue{sorted_[i], static_cast<std::uint64_t>(i + 1)});
    }
  }
  return RankSampleSet(std::move(samples));
}

double LocalSampler::first_value() const {
  PRC_CHECK(!sorted_.empty()) << "first_value of empty node";
  return sorted_.front();
}

double LocalSampler::last_value() const {
  PRC_CHECK(!sorted_.empty()) << "last_value of empty node";
  return sorted_.back();
}

}  // namespace prc::sampling
