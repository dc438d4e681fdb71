#include "iot/base_station.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/byte_codec.h"
#include "common/check.h"
#include "common/telemetry.h"
#include "estimator/basic_counting.h"
#include "iot/codec.h"

namespace prc::iot {

BaseStation::BaseStation(std::size_t node_count) : entries_(node_count) {
  PRC_CHECK(node_count > 0) << "base station needs >= 1 node";
}

BaseStation::BaseStation(const BaseStation& other) {
  std::lock_guard<std::mutex> lock(other.mutex_);
  entries_ = other.entries_;
  p_ = other.p_;
}

BaseStation& BaseStation::operator=(const BaseStation& other) {
  if (this == &other) return *this;
  // Copy out under the source lock first; never hold both mutexes at once.
  std::vector<NodeEntry> entries;
  double p = 0.0;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    entries = other.entries_;
    p = other.p_;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  entries_ = std::move(entries);
  p_ = p;
  return *this;
}

std::size_t BaseStation::node_count() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

double BaseStation::sampling_probability() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return p_;
}

std::size_t BaseStation::total_data_count() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_data_count_locked();
}

std::size_t BaseStation::total_data_count_locked() const {
  std::size_t total = 0;
  for (const auto& entry : entries_) total += entry.data_count;
  return total;
}

std::size_t BaseStation::cached_sample_count() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& entry : entries_) total += entry.samples->size();
  return total;
}

double BaseStation::node_probability(std::size_t node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.at(node).probability;
}

bool BaseStation::node_reported(std::size_t node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.at(node).reported;
}

std::vector<double> BaseStation::node_probabilities() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return node_probabilities_locked();
}

std::vector<double> BaseStation::node_probabilities_locked() const {
  std::vector<double> probabilities;
  probabilities.reserve(entries_.size());
  for (const auto& entry : entries_) probabilities.push_back(entry.probability);
  return probabilities;
}

CoverageSummary BaseStation::coverage() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return coverage_locked();
}

CoverageSummary BaseStation::coverage_locked() const {
  CoverageSummary summary;
  summary.target_p = p_;
  summary.node_count = entries_.size();
  std::size_t known_data = 0;
  std::size_t fresh_data = 0;
  bool any_unreported = false;
  double min_p = 1.0;
  for (const auto& entry : entries_) {
    if (!entry.reported) {
      any_unreported = true;
      continue;
    }
    ++summary.reported_nodes;
    known_data += entry.data_count;
    summary.max_probability =
        std::max(summary.max_probability, entry.probability);
    if (entry.probability >= p_) {
      fresh_data += entry.data_count;
    } else {
      ++summary.stale_nodes;
    }
    if (entry.data_count > 0) min_p = std::min(min_p, entry.probability);
  }
  summary.min_probability =
      (any_unreported || summary.reported_nodes == 0) ? 0.0 : min_p;
  summary.coverage = known_data == 0
                         ? 0.0
                         : static_cast<double>(fresh_data) /
                               static_cast<double>(known_data);
  return summary;
}

BaseStation::NodeEntry& BaseStation::entry_locked(int node_id) {
  if (node_id < 0 || static_cast<std::size_t>(node_id) >= entries_.size()) {
    throw std::out_of_range("sample report from unknown node");
  }
  return entries_[static_cast<std::size_t>(node_id)];
}

void BaseStation::ingest(const SampleReport& report) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& entry = entry_locked(report.node_id);
  entry.data_count = report.data_count;
  entry.reported = true;
  if (!report.new_samples.empty()) {
    // A fresh set, never an in-place merge: estimates may still hold the
    // old one.
    entry.samples = std::make_shared<const sampling::RankSampleSet>(
        entry.samples->merged(sampling::RankSampleSet(report.new_samples)));
  }
  static telemetry::Counter& reports_ingested =
      telemetry::counter("iot.station.reports_ingested");
  reports_ingested.increment();
}

void BaseStation::replace(const SampleReport& full_report) {
  SharedSamples samples =
      std::make_shared<const sampling::RankSampleSet>(full_report.new_samples);
  std::lock_guard<std::mutex> lock(mutex_);
  auto& entry = entry_locked(full_report.node_id);
  entry.data_count = full_report.data_count;
  entry.reported = true;
  // The old set is released on return, after the lock: `samples` is
  // destroyed last.
  std::swap(entry.samples, samples);
  static telemetry::Counter& cache_replacements =
      telemetry::counter("iot.station.cache_replacements");
  cache_replacements.increment();
}

void BaseStation::commit_round(double p) {
  std::lock_guard<std::mutex> lock(mutex_);
  commit_round_locked(p, std::vector<bool>(entries_.size(), true));
}

void BaseStation::commit_round(double p, const std::vector<bool>& refreshed) {
  std::lock_guard<std::mutex> lock(mutex_);
  commit_round_locked(p, refreshed);
}

void BaseStation::commit_round_locked(double p,
                                      const std::vector<bool>& refreshed) {
  PRC_CHECK_PROB(p);
  // Monotone round targets are what make the cached sample reusable: the
  // incremental top-up argument (Bernoulli(p_old) extended to
  // Bernoulli(p_new)) only runs forward.
  PRC_CHECK(p >= p_) << "sampling probability cannot decrease (have " << p_
                     << ", got " << p << ")";
  PRC_CHECK(refreshed.size() == entries_.size())
      << "refreshed mask size mismatch: " << refreshed.size() << " vs "
      << entries_.size() << " nodes";
  p_ = p;
  std::size_t cached = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (refreshed[i]) {
      entries_[i].probability = std::max(entries_[i].probability, p);
    }
    cached += entries_[i].samples->size();
  }
  static telemetry::Counter& rounds_committed =
      telemetry::counter("iot.station.rounds_committed");
  static telemetry::Gauge& cached_samples =
      telemetry::gauge("iot.station.cached_samples");
  static telemetry::Gauge& sampling_probability =
      telemetry::gauge("iot.station.sampling_probability");
  rounds_committed.increment();
  cached_samples.set(static_cast<double>(cached));
  sampling_probability.set(p);
}

std::vector<estimator::NodeSampleView> BaseStation::node_views() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return node_views_locked();
}

std::vector<estimator::NodeSampleView> BaseStation::node_views_locked() const {
  std::vector<estimator::NodeSampleView> views;
  views.reserve(entries_.size());
  for (const auto& entry : entries_) {
    views.push_back(
        estimator::NodeSampleView{entry.samples.get(), entry.data_count});
  }
  return views;
}

std::vector<estimator::NodeSampleView> BaseStation::EstimateSnapshot::views()
    const {
  std::vector<estimator::NodeSampleView> views;
  views.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    views.push_back(
        estimator::NodeSampleView{samples[i].get(), data_counts[i]});
  }
  return views;
}

BaseStation::EstimateSnapshot BaseStation::estimate_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PRC_CHECK(p_ > 0.0) << "no sampling round committed yet";
  EstimateSnapshot snap;
  snap.samples.reserve(entries_.size());
  snap.data_counts.reserve(entries_.size());
  for (const auto& entry : entries_) {
    snap.samples.push_back(entry.samples);
    snap.data_counts.push_back(entry.data_count);
  }
  snap.probabilities = node_probabilities_locked();
  return snap;
}

double BaseStation::rank_counting_estimate(
    const query::RangeQuery& range) const {
  // Stage under the lock, estimate outside it: the chunked estimator fans
  // out across the shared pool, and holding mutex_ across that fan-out
  // would queue every report ingestion behind query latency.
  const EstimateSnapshot snap = estimate_snapshot();
  return estimator::rank_counting_estimate(snap.views(), snap.probabilities,
                                           range);
}

std::vector<double> BaseStation::rank_counting_estimate_batch(
    std::span<const query::RangeQuery> ranges) const {
  const EstimateSnapshot snap = estimate_snapshot();
  return estimator::rank_counting_estimate_batch(snap.views(),
                                                 snap.probabilities, ranges);
}

double BaseStation::basic_counting_estimate(
    const query::RangeQuery& range) const {
  std::lock_guard<std::mutex> lock(mutex_);
  PRC_CHECK(p_ > 0.0) << "no sampling round committed yet";
  std::vector<const sampling::RankSampleSet*> nodes;
  nodes.reserve(entries_.size());
  for (const auto& entry : entries_) nodes.push_back(entry.samples.get());
  return estimator::basic_counting_estimate(nodes, p_, range);
}

namespace {

constexpr char kCheckpointMagic[4] = {'P', 'R', 'C', 'S'};
// Version 2 added the per-node effective probability (v1 assumed one global
// p, which is exactly the stale-sample bias the probability field fixes).
constexpr std::uint32_t kCheckpointVersion = 2;

}  // namespace

std::vector<std::uint8_t> BaseStation::serialize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint8_t> bytes;
  ByteWriter out(bytes);
  for (const char byte : kCheckpointMagic) {
    out.u8(static_cast<std::uint8_t>(byte));
  }
  out.u32(kCheckpointVersion);
  out.u32(static_cast<std::uint32_t>(entries_.size()));
  out.f64(p_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& entry = entries_[i];
    out.u8(entry.reported ? 1 : 0);
    out.f64(entry.probability);
    // Reuse the wire codec: one full SampleReport frame per node.
    SampleReport report;
    report.node_id = static_cast<int>(i);
    report.data_count = entry.data_count;
    report.new_samples = entry.samples->samples();
    const auto frame = encode(report);
    out.u32(static_cast<std::uint32_t>(frame.size()));
    out.bytes(frame);
  }
  return bytes;
}

BaseStation BaseStation::deserialize(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 4 ||
      std::memcmp(bytes.data(), kCheckpointMagic, 4) != 0) {
    throw std::invalid_argument("checkpoint: bad magic");
  }
  ByteReader<std::invalid_argument> in{std::span(bytes).subspan(4),
                                       "checkpoint truncated"};
  if (in.u32() != kCheckpointVersion) {
    throw std::invalid_argument("checkpoint: unsupported version");
  }
  const std::uint32_t node_count = in.u32();
  if (node_count == 0) {
    throw std::invalid_argument("checkpoint: zero nodes");
  }
  const double p = in.f64();
  // Each node takes at least 13 bytes (reported flag, probability, frame
  // length): refuse a count the body cannot hold before allocating the
  // per-node entries it claims.
  constexpr std::size_t kMinNodeBytes = 1 + 8 + 4;
  if (node_count > in.remaining() / kMinNodeBytes) {
    throw std::invalid_argument("checkpoint: node count exceeds body");
  }

  BaseStation station(node_count);
  for (std::uint32_t i = 0; i < node_count; ++i) {
    const bool reported = in.u8() != 0;
    const double probability = in.f64();
    if (probability < 0.0 || probability > 1.0) {
      throw std::invalid_argument("checkpoint: bad node probability");
    }
    const std::uint32_t frame_size = in.u32();
    const SampleReport report = decode_sample_report(in.bytes(frame_size));
    // Slot i holds node i's frame; a frame carrying another id would
    // overwrite that node's samples and leave slot i's probability
    // describing data it does not hold.
    if (report.node_id != static_cast<int>(i)) {
      throw std::invalid_argument("checkpoint: frame filed under another node");
    }
    if (reported) {
      station.replace(report);
      std::lock_guard<std::mutex> lock(station.mutex_);
      station.entries_[i].probability = probability;
    }
  }
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("checkpoint: bad round probability");
  }
  // Restore the round target without touching the per-node probabilities
  // that were just read back.
  {
    std::lock_guard<std::mutex> lock(station.mutex_);
    station.p_ = p;
  }
  return station;
}

}  // namespace prc::iot
