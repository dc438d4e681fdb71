// Tree-model IoT network.
//
// The paper notes that "algorithms on flat models can be easily extended to
// a general tree model".  This module makes that concrete: sensor nodes are
// arranged in a balanced tree rooted at the base station, sample reports
// are relayed hop by hop toward the root, and intermediate nodes coalesce
// their children's samples into shared frames (in-network aggregation),
// which saves per-frame header bytes at the cost of no information — the
// estimator's inputs are identical to the flat model's.
//
// What changes vs FlatNetwork is ONLY the communication bill: a sample
// from a node at depth d crosses d links.  Estimates are byte-for-byte the
// topology-independent RankCounting computation at the root.
#pragma once

#include <cstddef>
#include <vector>

#include "iot/faults.h"
#include "iot/link.h"
#include "iot/round_report.h"
#include "iot/simulated_network.h"

namespace prc::iot {

struct TreeConfig {
  /// Children per interior node.  Fanout 1 degenerates to a chain.
  std::size_t fanout = 4;
  /// Coalesce child frames at interior nodes (saves headers).  When false,
  /// every report is relayed as its own frame on every hop — the naive
  /// store-and-forward baseline the aggregation ablation compares against.
  bool aggregate_frames = true;
  /// Per-link frame loss probability; lost frames are retransmitted and
  /// re-charged, like FlatNetwork.
  double frame_loss_probability = 0.0;
  std::uint64_t seed = 7;
  /// Seeded failure processes; disabled by default (no randomness drawn).
  FaultConfig faults;
  /// Per-frame transmission budget; 0 = unbounded (seed behavior).
  std::size_t max_attempts = 0;
};

class TreeNetwork final : public SimulatedNetwork {
 public:
  /// node_data[i] is node i's local multiset; node i's tree position is
  /// breadth-first (node 0 is a child of the root base station).
  TreeNetwork(std::vector<std::vector<double>> node_data,
              TreeConfig config = {});

  /// Depth (link count to the base station) of a node; min 1.
  std::size_t depth(std::size_t node) const;

  /// Height of the tree (max depth over nodes).
  std::size_t height() const noexcept { return height_; }

  const std::vector<TreeLevelStats>& level_stats() const noexcept {
    return level_stats_;
  }

  /// True when every sensor on `node`'s path to the root is offline-free
  /// (the node itself not included).
  bool route_to_root_alive(std::size_t node) const;

  /// Runs a top-up round to probability `p`, routing every report up the
  /// tree.  With faults disabled, unbounded retries, and all nodes online
  /// an aggregating tree charges the in-network convergecast; any other
  /// round relays each report store-and-forward, so each report's delivery
  /// can succeed or fail independently.
  RoundReport ensure_sampling_probability(double p) override;

 private:
  /// Charges the coalesced convergecast of a fault-free aggregated round,
  /// after every node's report already reached the station.
  void account_convergecast(const std::vector<NodeLane>& lanes);

  TreeConfig config_;
  std::size_t height_ = 0;
};

}  // namespace prc::iot
