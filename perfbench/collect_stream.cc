// collect_stream: continuous collection on a 64-node flat fleet.
//
// The fleet starts with the first half of a generated ozone column
// (16x the paper's 17,568 records, so appends take milliseconds).  Each
// timed epoch streams the next slice of the second half into every node,
// resynchronises the dirty samples, raises p one step along a geometric
// ladder over Fig. 2's range, and answers the default evaluation suite
// from the station cache.  A pass of kEpochsPerPass epochs consumes the
// whole second half and climbs the whole ladder; a run repeats passes on a
// rebuilt fleet, starting a new pass only while one fits in the time left,
// so every run measures the same mix of early (small, sparse) and late
// epochs.
//
// sampling, iot and estimator do the work; dp, pricing and market do none.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "harness.h"
#include "iot/network.h"
#include "query/range_query.h"
#include "query/workload.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr std::size_t kRecordScale = 16;
constexpr std::size_t kEpochsPerPass = 100;
constexpr double kLadderMin = 0.0173;  // Fig. 2's sampling-probability range
constexpr double kLadderMax = 0.4048;
// The tail percentile reported as op_tail_us: a pass of 100 epochs supports
// p90, and a run measures whole passes.
constexpr double kTailPercentile = 90.0;
static_assert(kEpochsPerPass >= 100);
// Fig. 2's error shape: once p >= 0.15, ranges holding at least 5% of the
// data are answered within a few percent.  The bound leaves room for the
// rare multi-sigma draw across a run's thousands of checked answers.
constexpr double kCheckedProbability = 0.15;
constexpr double kCheckedSelectivity = 0.05;
constexpr double kMaxRelativeError = 0.06;

class CollectStream final : public Workload {
 public:
  explicit CollectStream(const Options& options) : options_(options) {}

  void setup() override {
    const auto g0 = now_ns();
    const auto values =
        generate_ozone(kPaperRecords * kRecordScale, options_.seed);
    generate_ms_.push_back(ms_since(g0));
    const std::size_t half = values.size() / 2;
    const std::vector<double> first(values.begin(),
                                    values.begin() + static_cast<long>(half));
    {
      PRC_TRACE_SPAN("bench.setup.partition");
      const auto t0 = now_ns();
      prc::Rng rng(options_.seed + 1);
      initial_ = prc::data::partition_values(
          first, kNodes, prc::data::PartitionStrategy::kRoundRobin, rng);
      slices_.clear();
      slice_sizes_.clear();
      const std::size_t rest = values.size() - half;
      for (std::size_t e = 0; e < kEpochsPerPass; ++e) {
        const std::size_t b = half + rest * e / kEpochsPerPass;
        const std::size_t end = half + rest * (e + 1) / kEpochsPerPass;
        const std::vector<double> slice(
            values.begin() + static_cast<long>(b),
            values.begin() + static_cast<long>(end));
        slices_.push_back(prc::data::partition_values(
            slice, kNodes, prc::data::PartitionStrategy::kRoundRobin, rng));
        slice_sizes_.push_back(slice.size());
      }
      partition_ms_.push_back(ms_since(t0));
    }

    suite_ = prc::query::default_evaluation_suite(
        prc::data::Column("ozone", values));
    // Ground truth per epoch: the first half's counts plus every slice
    // appended so far.
    const prc::data::Column first_column("ozone", first);
    truth_.assign(kEpochsPerPass, std::vector<double>(suite_.size(), 0.0));
    std::vector<double> running(suite_.size());
    for (std::size_t r = 0; r < suite_.size(); ++r) {
      running[r] = static_cast<double>(
          first_column.exact_range_count(suite_[r].lower, suite_[r].upper));
    }
    for (std::size_t e = 0; e < kEpochsPerPass; ++e) {
      for (const auto& node : slices_[e]) {
        for (std::size_t r = 0; r < suite_.size(); ++r) {
          running[r] += static_cast<double>(
              prc::query::exact_range_count(node, suite_[r]));
        }
      }
      truth_[e] = running;
    }
    initial_count_ = first.size();

    ladder_.resize(kEpochsPerPass);
    for (std::size_t e = 0; e < kEpochsPerPass; ++e) {
      const double step = static_cast<double>(e + 1) / kEpochsPerPass;
      ladder_[e] = kLadderMin * std::pow(kLadderMax / kLadderMin, step);
    }

    build_ms_.push_back(build_fleet());
  }

  PhaseResult run(std::int64_t deadline_ns, std::size_t max_ops) override {
    epochs_ = PhaseSamples();
    passes_ = 1;
    resynced_ = 0;
    max_checked_error_ = 0.0;
    PhaseResult result;
    PassClock clock(deadline_ns);
    while (result.ops < max_ops) {
      if (epoch_ == kEpochsPerPass) {
        // Whole passes only: a run ends where a pass ends.
        if (!clock.next_pass_fits()) break;
        Exclusions::Scope rebuild(result.excluded);
        build_fleet();
        ++passes_;
      }
      const std::size_t e = epoch_++;
      const auto t0 = now_ns();
      {
        PRC_TRACE_SPAN("bench.collect.append");
        for (std::size_t node = 0; node < kNodes; ++node) {
          network_->append_data(node, slices_[e][node]);
        }
      }
      {
        PRC_TRACE_SPAN("bench.collect.refresh");
        resynced_ += network_->refresh_samples();
      }
      {
        PRC_TRACE_SPAN("bench.collect.topup");
        network_->ensure_sampling_probability(ladder_[e]);
      }
      std::vector<double> estimates;
      {
        PRC_TRACE_SPAN("bench.collect.estimate");
        estimates = network_->rank_counting_estimate_batch(suite_);
      }
      const double epoch_us = static_cast<double>(now_ns() - t0) / 1e3;
      epochs_.add(epoch_us);
      epochs_.add_work(static_cast<double>(slice_sizes_[e]), epoch_us / 1e6);
      in_fleet_ += slice_sizes_[e];
      ++result.ops;
      ++result.attempted;
      if (!epoch_correct(e, estimates)) ++result.failed;
    }
    return result;
  }

  void verify(Checks& checks) override {
    checks.expect(epochs_.count() >= kEpochsPerPass,
                  "no complete pass of epochs");
    checks.expect(network_->base_station().cached_sample_count() > 0,
                  "station cache is empty");
    checks.expect(network_->base_station().coverage().complete(),
                  "fault-free collection left the cache incomplete");
  }

  void end_to_end(Metrics& m) const override {
    m.set("op_p50_us", epochs_.quantile(0.5));
    m.set("op_tail_us", epochs_.quantile(kTailPercentile / 100));
    m.set("throughput_per_s", epochs_.rate());
  }

  void per_layer(Metrics& m, const TraceView& trace) const override {
    m.set("data.generate_ms", median_ms(generate_ms_));
    m.set("data.partition_ms", median_ms(partition_ms_));
    m.set("iot.build_ms", median_ms(build_ms_));
    const auto median_of = [&](const char* span) {
      const auto d = trace.durations_us(span);
      return d.empty() ? 0.0 : median(d);
    };
    m.set("iot.append_ms", median_of("bench.collect.append") / 1e3);
    m.set("iot.refresh_ms", median_of("bench.collect.refresh") / 1e3);
    m.set("iot.topup_ms", median_of("bench.collect.topup") / 1e3);
    m.set("estimator.batch_us", median_of("bench.collect.estimate"));
    m.set("iot.resynced_nodes", static_cast<double>(resynced_));
    m.set("iot.cached_samples",
          static_cast<double>(network_->base_station().cached_sample_count()));
  }

  std::string summary() const override {
    std::ostringstream out;
    out << "# collect_epoch_p50_ms "
        << epochs_.quantile(0.5) / 1e3 << " ms\n# collect_epoch_p90_ms "
        << epochs_.quantile(kTailPercentile / 100) / 1e3 << " ms (over "
        << epochs_.count() << " epochs in " << passes_
        << " passes)\n# collect_values_per_s " << epochs_.rate()
        << " readings/s\n# max relative error (p >= " << kCheckedProbability
        << ", selectivity >= " << kCheckedSelectivity << ") "
        << max_checked_error_ << "\n";
    return out.str();
  }

 private:
  // Builds the fleet on the first half and collects it at the ladder's
  // first step; returns the FlatNetwork constructor's time (ms).
  double build_fleet() {
    network_.reset();
    double build_ms = 0.0;
    {
      PRC_TRACE_SPAN("bench.setup.build");
      prc::iot::NetworkConfig config;
      config.seed = options_.seed + 2;
      const auto t0 = now_ns();
      network_ = std::make_unique<prc::iot::FlatNetwork>(initial_, config);
      build_ms = ms_since(t0);
    }
    {
      PRC_TRACE_SPAN("bench.setup.collect");
      network_->ensure_sampling_probability(kLadderMin);
    }
    epoch_ = 0;
    in_fleet_ = initial_count_;
    return build_ms;
  }

  // Per-epoch output checks: the station counts every reading, and once p
  // is high enough the estimates have Fig. 2's error shape.
  bool epoch_correct(std::size_t e, const std::vector<double>& estimates) {
    const auto& station = network_->base_station();
    if (station.total_data_count() != in_fleet_ ||
        network_->total_data_count() != in_fleet_ ||
        estimates.size() != suite_.size()) {
      return false;
    }
    if (ladder_[e] < kCheckedProbability) return true;
    const double n = static_cast<double>(in_fleet_);
    for (std::size_t r = 0; r < suite_.size(); ++r) {
      const double truth = truth_[e][r];
      if (truth < kCheckedSelectivity * n) continue;
      const double error = std::abs(estimates[r] - truth) / truth;
      max_checked_error_ = std::max(max_checked_error_, error);
      if (!(error <= kMaxRelativeError)) return false;
    }
    return true;
  }

  Options options_;
  // Inputs, rebuilt by every setup.
  std::vector<std::vector<double>> initial_;
  std::vector<std::vector<std::vector<double>>> slices_;
  std::vector<std::size_t> slice_sizes_;
  std::vector<prc::query::RangeQuery> suite_;
  std::vector<std::vector<double>> truth_;
  std::vector<double> ladder_;
  std::size_t initial_count_ = 0;
  // Fleet state.
  std::unique_ptr<prc::iot::FlatNetwork> network_;
  std::size_t epoch_ = 0;
  std::size_t in_fleet_ = 0;
  // Measurements.
  std::vector<double> generate_ms_;
  std::vector<double> partition_ms_;
  std::vector<double> build_ms_;
  PhaseSamples epochs_;
  std::size_t passes_ = 0;
  std::size_t resynced_ = 0;
  double max_checked_error_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_collect_stream(const Options& options) {
  return std::make_unique<CollectStream>(options);
}

}  // namespace perfbench
