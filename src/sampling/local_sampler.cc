#include "sampling/local_sampler.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace prc::sampling {

LocalSampler::LocalSampler(std::vector<double> values)
    : sorted_(std::move(values)), selected_(sorted_.size(), false) {
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
      selected_[i] = true;
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
  // Draw each newcomer at the current p in arrival order, sort only the
  // newcomers (stably, so equal values keep arrival order), then merge them
  // in from the back.  An existing element moves only when it is strictly
  // greater than the newcomer being placed, so existing copies of a value
  // keep the lower ranks.
  std::vector<std::pair<double, bool>> fresh;
  fresh.reserve(values.size());
  for (double v : values) {
    const bool take = rng.bernoulli(p_);
    fresh.emplace_back(v, take);
    if (take) ++sampled_count_;
  }
  std::stable_sort(
      fresh.begin(), fresh.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t i = sorted_.size();
  std::size_t j = fresh.size();
  std::size_t k = i + j;
  sorted_.resize(k);
  selected_.resize(k);
  while (j > 0) {
    --k;
    if (i > 0 && sorted_[i - 1] > fresh[j - 1].first) {
      --i;
      sorted_[k] = sorted_[i];
      selected_[k] = selected_[i];
    } else {
      --j;
      sorted_[k] = fresh[j].first;
      selected_[k] = fresh[j].second;
    }
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
