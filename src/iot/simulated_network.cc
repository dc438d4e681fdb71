#include "iot/simulated_network.h"

#include <stdexcept>
#include <utility>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace prc::iot {
namespace {

// Publishes one collection round's frame/byte deltas and resulting coverage
// to the metrics registry ("iot.*" catalog; see DESIGN.md "Telemetry").
// Event counts, sizes and coverage only — no sample values cross this
// boundary.
void publish_round_metrics(const CommunicationStats& before,
                           const CommunicationStats& after,
                           const RoundReport& report) {
  auto& registry = telemetry::Telemetry::registry();
  registry.counter("iot.rounds").increment();
  registry.counter("iot.frames_attempted")
      .increment(after.frames_attempted - before.frames_attempted);
  registry.counter("iot.frames_delivered")
      .increment(after.frames_delivered - before.frames_delivered);
  registry.counter("iot.frames_dropped")
      .increment(after.dropped_frames - before.dropped_frames);
  registry.counter("iot.retransmissions")
      .increment(after.retransmissions - before.retransmissions);
  registry.counter("iot.uplink_bytes")
      .increment(after.uplink_bytes - before.uplink_bytes);
  registry.counter("iot.downlink_bytes")
      .increment(after.downlink_bytes - before.downlink_bytes);
  registry.counter("iot.samples_transferred").increment(report.new_samples);
  registry.gauge("iot.round_coverage").set(report.coverage);
  registry.gauge("iot.round_min_probability").set(report.min_probability);
  registry.histogram("iot.round_new_samples")
      .record(static_cast<double>(report.new_samples));
}

}  // namespace

SimulatedNetwork::SimulatedNetwork(std::vector<std::vector<double>> node_data,
                                   std::uint64_t seed,
                                   double frame_loss_probability,
                                   std::size_t max_attempts,
                                   const FaultConfig& faults)
    : station_(node_data.size()),
      link_(seed, node_data.size(), frame_loss_probability, max_attempts,
            faults) {
  Rng master(seed);
  nodes_.reserve(node_data.size());
  for (std::size_t i = 0; i < node_data.size(); ++i) {
    total_data_count_ += node_data[i].size();
    nodes_.emplace_back(static_cast<int>(i), std::move(node_data[i]),
                        master.split());
  }
}

TopUp SimulatedNetwork::top_up(std::size_t node, double p) {
  auto& sensor = nodes_[node];
  TopUp top{sensor.handle(SampleRequest{sensor.id(), p})};
  if (sensor.dirty()) {
    top.report = sensor.full_report();
    top.full_resync = true;
  }
  return top;
}

void SimulatedNetwork::settle(std::size_t node, NodeLane& lane,
                              bool delivered, std::size_t samples) {
  if (!delivered) {
    nodes_[node].invalidate_cached_sample();
    lane.outcome = NodeOutcome::kDropped;
    return;
  }
  lane.new_samples = samples;
  lane.stats.samples_transferred += samples;
  lane.refreshed = true;
}

RoundReport SimulatedNetwork::run_round(double p, const NodeStep& step,
                                        const AfterMerge& after_merge) {
  if (!(p > 0.0) || p > 1.0) {
    throw std::invalid_argument("sampling probability must be in (0, 1]");
  }
  RoundReport report;
  report.target_p = p;
  report.outcomes.assign(nodes_.size(), NodeOutcome::kDelivered);

  if (p <= station_.sampling_probability()) {
    // The cache already satisfies the request: no traffic, no churn step.
    // Report where each node stands relative to the *requested* p.
    telemetry::counter("iot.rounds_noop").increment();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (station_.node_probability(i) >= p) continue;
      report.outcomes[i] = station_.node_reported(i) ? NodeOutcome::kStale
                                                     : NodeOutcome::kOffline;
    }
    const CoverageSummary cov = station_.coverage();
    report.coverage = cov.coverage;
    report.min_probability = cov.min_probability;
    return report;
  }

  PRC_TRACE_SPAN("iot.round");
  telemetry::ScopedTimer round_timer(
      telemetry::histogram("iot.round_duration_us"));
  const CommunicationStats before = stats_;
  // Churn state is frozen for the rest of the round: lanes only read it.
  link_.faults().begin_round();

  // Per-node lanes: every stochastic draw a node makes comes from its own
  // sampling, channel and fault streams, its station entry is disjoint from
  // the others' (and the station is internally locked), and its traffic
  // goes to its own lane, so the lanes need no cross-node ordering.
  std::vector<NodeLane> lanes(nodes_.size());
  parallel::parallel_for_each(nodes_.size(), [&](std::size_t i) {
    lanes[i].levels.resize(level_stats_.size());
    step(i, lanes[i]);
  });

  // Serial merge in node index order.
  std::vector<bool> refreshed(nodes_.size(), false);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& lane = lanes[i];
    stats_ += lane.stats;
    for (std::size_t level = 0; level < lane.levels.size(); ++level) {
      level_stats_[level].links_crossed += lane.levels[level].links_crossed;
      level_stats_[level].bytes += lane.levels[level].bytes;
    }
    report.new_samples += lane.new_samples;
    report.outcomes[i] = lane.outcome;
    if (lane.severed) ++report.severed_reports;
    refreshed[i] = lane.refreshed;
  }
  if (after_merge) after_merge(lanes);

  station_.commit_round(p, refreshed);
  report.retries = stats_.retransmissions - before.retransmissions;
  report.dropped_frames = stats_.dropped_frames - before.dropped_frames;
  const CoverageSummary cov = station_.coverage();
  report.coverage = cov.coverage;
  report.min_probability = cov.min_probability;
  last_round_ = report;
  publish_round_metrics(before, stats_, report);
  return report;
}

}  // namespace prc::iot
