// The simulation machinery shared by FlatNetwork and TreeNetwork.
//
// A SimulatedNetwork owns what the two topologies have in common: the
// sensor nodes, the base station, the Link, the traffic counters and the
// report of the last round.  run_round() is the one round driver: p
// validation, the no-op round, the churn step, the parallel per-node lanes,
// the serial merge in node order, the partial commit, the RoundReport and
// the round's metrics.  A topology supplies only the per-node step that
// moves a node's request and report across its links.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "iot/base_station.h"
#include "iot/faults.h"
#include "iot/link.h"
#include "iot/messages.h"
#include "iot/node.h"
#include "iot/round_report.h"
#include "iot/sampling_network.h"
#include "query/range_query.h"

namespace prc::iot {

/// One node's share of a round (or of a resync pass).  The topology's step
/// fills it from a parallel region; run_lanes() merges the lanes serially in
/// node order, so a round is bit-identical at any thread count.
struct NodeLane {
  CommunicationStats stats;
  std::vector<TreeLevelStats> levels;  // sized like level_stats_; tree only
  std::size_t new_samples = 0;
  NodeOutcome outcome = NodeOutcome::kDelivered;
  bool refreshed = false;  // the station now holds the node at the round p
  bool severed = false;    // an offline relay cut the node off (tree only)
};

/// A node's answer to a top-up request: a delta on top of the station's
/// cache, or (full_resync) its whole current sample, replacing the cache.
struct TopUp {
  SampleReport report;
  bool full_resync = false;
};

class SimulatedNetwork : public SamplingNetwork {
 public:
  std::size_t node_count() const noexcept override { return nodes_.size(); }

  /// Ground truth n = sum n_i (the simulator knows it; the base station
  /// learns it from reports).
  std::size_t total_data_count() const noexcept override {
    return total_data_count_;
  }

  const BaseStation& base_station() const noexcept override {
    return station_;
  }
  const CommunicationStats& stats() const noexcept { return stats_; }

  /// The report of the most recent round (default-constructed before any).
  const RoundReport& last_round() const noexcept { return last_round_; }

  /// Marks a node offline/online; offline nodes ignore top-up requests.  In
  /// a tree an offline INTERIOR node also severs its whole subtree —
  /// descendants stay alive and sample locally, but their reports cannot
  /// reach the root and are counted as severed in the round report.
  void set_node_online(std::size_t node, bool online) {
    nodes_.at(node).set_online(online);
  }

  /// RankCounting estimates from the base station cache.
  double rank_counting_estimate(
      const query::RangeQuery& range) const override {
    return station_.rank_counting_estimate(range);
  }
  std::vector<double> rank_counting_estimate_batch(
      std::span<const query::RangeQuery> ranges) const override {
    return station_.rank_counting_estimate_batch(ranges);
  }

 protected:
  /// Step of one node in a round: runs inside the parallel region and may
  /// touch only node `node`'s state, its channel and fault streams, the
  /// (internally locked) station, and `lane`.
  using NodeStep = std::function<void(std::size_t node, NodeLane& lane)>;
  /// Serial pass after the merge, before the commit; it may charge stats_
  /// and level_stats_ directly.
  using AfterMerge = std::function<void(const std::vector<NodeLane>& lanes)>;

  /// One entry of `node_data` per node.  Node i samples from split i of the
  /// master Rng(seed); the Link's channel streams follow.
  SimulatedNetwork(std::vector<std::vector<double>> node_data,
                   std::uint64_t seed, double frame_loss_probability,
                   std::size_t max_attempts, const FaultConfig& faults);

  /// Runs a top-up round raising every node's inclusion probability to `p`
  /// (no traffic when the cache already satisfies p).  Returns its report.
  RoundReport run_round(double p, const NodeStep& step,
                        const AfterMerge& after_merge = {});

  /// Runs `step` for every node on the pool, each into its own lane, then
  /// charges the lanes' traffic to stats_ and level_stats_ serially in node
  /// order.  Returns the lanes for the caller's own merge.
  std::vector<NodeLane> run_lanes(const NodeStep& step);

  /// True when `node` is offline, manually or by churn.
  bool offline(std::size_t node) const {
    return !nodes_[node].online() || link_.faults().node_offline(node);
  }

  /// Outcome of a node that sat the round out: kStale when the station
  /// holds samples from an earlier round, kOffline when it holds none.
  NodeOutcome prior_outcome(std::size_t node) const {
    return station_.node_probability(node) > 0.0 ? NodeOutcome::kStale
                                                 : NodeOutcome::kOffline;
  }

  /// Tops `node` up to `p`.  A dirty node answers with its full sample:
  /// either appends shifted its ranks (the station's cached deltas are in a
  /// stale rank epoch) or an earlier drop left the cache behind the node's
  /// sampler (a delta on top of that gap would under-count).
  TopUp top_up(std::size_t node, double p);

  /// Records whether node `node`'s report of `samples` samples fully
  /// reached the station.  When it did not, the node's sampler has already
  /// advanced, so it must resync in full at the next opportunity.
  void settle(std::size_t node, NodeLane& lane, bool delivered,
              std::size_t samples);

  std::vector<SensorNode> nodes_;
  BaseStation station_;
  Link link_;
  CommunicationStats stats_;
  /// Per-depth traffic; empty unless the topology sizes it.
  std::vector<TreeLevelStats> level_stats_;
  RoundReport last_round_;
  std::size_t total_data_count_ = 0;
};

}  // namespace prc::iot
