// Statistics the benchmark reports: quantiles of latency samples, the tail
// percentile a sample count can support, span self time and coverage, and
// the failed-operation share.  Header-only and free of library
// dependencies so stats_test.cc can check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (the "type 7" rule: numpy's default).  Throws on an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q not in [0, 1]");
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the rule of Python's statistics.quantiles(values, n=4)
/// (method "exclusive"), so spreads printed here match a spread computed
/// over the printed values in Python.  Needs at least two samples.
inline Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) throw std::invalid_argument("quartiles need >= 2");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t m = n + 1;
  double cut[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that leaves at least ten
/// samples beyond it in a sample of `count`, as a percentage; 0 when even
/// the median is unsupported (fewer than 20 samples).
inline double tail_percentile(std::size_t count) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly beyond the p-th percentile: count * (1 - p/100),
    // computed in integers (per ten-thousand) to avoid rounding at the edge.
    const auto beyond_x10000 =
        static_cast<std::uint64_t>(count) *
        static_cast<std::uint64_t>(std::llround((100.0 - p) * 100.0));
    if (beyond_x10000 >= 10ULL * 10000ULL) best = p;
  }
  return best;
}

/// Fewest samples for which `tail_percentile` reaches `percentile`.
/// `percentile` must be one of the percentiles tail_percentile reports.
inline std::size_t samples_for_percentile(double percentile) {
  const auto beyond_per_10000 =
      static_cast<std::uint64_t>(std::llround((100.0 - percentile) * 100.0));
  return static_cast<std::size_t>(
      (10ULL * 10000ULL + beyond_per_10000 - 1) / beyond_per_10000);
}

/// One timed phase's latency samples and the work they completed, pooled
/// over the whole phase.  The shared host's speed drifts in stretches of
/// tens of seconds; a pooled quantile and a total rate move in proportion
/// to the share of the phase spent in a slow stretch, where a median over
/// per-pass values jumps from one level to the other.
class PhaseSamples {
 public:
  void add(double latency_us) { latencies_.push_back(latency_us); }
  /// Work completed (readings, sales) and the time (s) spent on it.
  void add_work(double items, double busy_s) {
    items_ += items;
    busy_s_ += busy_s;
  }

  std::size_t count() const { return latencies_.size(); }

  /// q-quantile of every sample; 0 when there are none.
  double quantile(double q) const {
    return latencies_.empty() ? 0.0 : perfbench::quantile(latencies_, q);
  }

  /// Work per busy second over the phase; 0 without work.
  double rate() const { return busy_s_ > 0.0 ? items_ / busy_s_ : 0.0; }

  /// Every sample, in the order they were added.
  const std::vector<double>& all() const { return latencies_; }

 private:
  std::vector<double> latencies_;
  double items_ = 0.0;
  double busy_s_ = 0.0;
};

/// Half-open time interval [begin, end) in nanoseconds.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Length of the union of `intervals` clipped to [lo, hi).
inline std::int64_t union_length(std::vector<Interval> intervals,
                                 std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::int64_t total = 0;
  std::int64_t cursor = lo;
  for (const auto& iv : intervals) {
    const std::int64_t b = std::max(iv.begin, cursor);
    const std::int64_t e = std::min(iv.end, hi);
    if (e > b) {
      total += e - b;
      cursor = e;
    }
  }
  return total;
}

/// One completed span, reduced to what self time needs.
struct SpanTiming {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;  ///< 0 for a root span
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
};

/// Self time of every span, aligned with `spans`: its duration minus the
/// part of its interval that its direct children cover.
inline std::vector<std::int64_t> self_times(
    const std::vector<SpanTiming>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const auto& s : spans) {
    if (s.parent_id != 0) {
      children[s.parent_id].push_back({s.start_ns, s.start_ns + s.duration_ns});
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const auto it = children.find(s.id);
    const std::int64_t covered =
        it == children.end()
            ? 0
            : union_length(it->second, s.start_ns, s.start_ns + s.duration_ns);
    self[i] = s.duration_ns - covered;
  }
  return self;
}

/// Share of attempted operations that failed.  An attempt count of zero is
/// a benchmark bug (every run attempts work), so it throws.
inline double failed_share(std::uint64_t attempted, std::uint64_t failed) {
  if (attempted == 0) throw std::invalid_argument("no operations attempted");
  if (failed > attempted) throw std::invalid_argument("failed > attempted");
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
