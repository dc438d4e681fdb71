#include "iot/tree_network.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>

namespace prc::iot {
namespace {

/// Tree slots: slot 0 is the base station; sensor node i occupies slot
/// i + 1.  With fanout f, the parent of slot s (s >= 1) is slot (s-1)/f.
std::size_t parent_slot(std::size_t slot, std::size_t fanout) {
  return (slot - 1) / fanout;
}

// Bytes on one link of a report carrying `samples` samples and `counts`
// n_i scalars, in as few frames as possible (at least one: the scalars
// travel even with no new samples).
std::size_t report_bytes(std::size_t samples, std::size_t counts) {
  const std::size_t frames = std::max<std::size_t>(
      1, (samples + kMaxSamplesPerFrame - 1) / kMaxSamplesPerFrame);
  return frames * kMessageHeaderBytes + samples * kSampleWireBytes +
         counts * sizeof(std::uint64_t);
}

}  // namespace

TreeNetwork::TreeNetwork(std::vector<std::vector<double>> node_data,
                         TreeConfig config)
    : SimulatedNetwork(std::move(node_data), config.seed,
                       config.frame_loss_probability, config.max_attempts,
                       config.faults),
      config_(config) {
  if (config_.fanout == 0) {
    throw std::invalid_argument("tree fanout must be >= 1");
  }
  height_ = depth(node_count() - 1);  // breadth-first: the last is deepest
  level_stats_.assign(height_ + 1, TreeLevelStats{});
}

std::size_t TreeNetwork::depth(std::size_t node) const {
  if (node >= node_count()) throw std::out_of_range("node index");
  std::size_t slot = node + 1;
  std::size_t d = 0;
  while (slot != 0) {
    slot = parent_slot(slot, config_.fanout);
    ++d;
  }
  return d;
}

bool TreeNetwork::route_to_root_alive(std::size_t node) const {
  if (node >= node_count()) throw std::out_of_range("node index");
  std::size_t slot = parent_slot(node + 1, config_.fanout);
  while (slot != 0) {
    if (offline(slot - 1)) return false;
    slot = parent_slot(slot, config_.fanout);
  }
  return true;
}

RoundReport TreeNetwork::ensure_sampling_probability(double p) {
  const bool all_online = std::ranges::all_of(nodes_, &SensorNode::online);
  // In-network aggregation needs a stable topology; while faults, bounded
  // retries or an offline sensor can stop a report, every report is relayed
  // on its own so its delivery can fail independently.
  const bool aggregate = config_.aggregate_frames &&
                         !link_.faults().enabled() &&
                         config_.max_attempts == 0 && all_online;
  const auto step = [&](std::size_t i, NodeLane& lane) {
    if (!route_to_root_alive(i)) {
      // A dead relay cuts the node off in both directions: the request never
      // arrives and nothing the node sends can reach the root.
      lane.severed = true;
      lane.outcome = prior_outcome(i);
      return;
    }
    // The request crosses the node's parent->child link, drawn from the
    // node's channel stream.  Tree downlinks are not level-accounted and are
    // never duplicated.
    const bool heard = link_.send(i, SampleRequest{}.wire_size(),
                                  Direction::kDownlink, lane.stats);
    if (offline(i)) {
      lane.outcome = prior_outcome(i);
      return;
    }
    if (!heard) {
      // The node never heard the request; its sampler did not move.
      lane.outcome = NodeOutcome::kDropped;
      return;
    }
    const TopUp top = top_up(i, p);
    const std::size_t samples = top.report.new_samples.size();
    if (!aggregate) {
      // Store-and-forward: the report crosses every link on its path to the
      // root as its own frame chain, charged at levels depth(i), ..., 1.
      // Delivery is atomic: a drop on any link discards the whole report.
      const std::size_t bytes = report_bytes(samples, 1);
      for (std::size_t level = depth(i); level >= 1; --level) {
        if (!link_.send(i, bytes, Direction::kUplink, lane.stats,
                        &lane.levels[level])) {
          settle(i, lane, /*delivered=*/false, 0);
          return;
        }
        link_.duplicate(i, bytes, Direction::kUplink, lane.stats);
      }
    }
    if (top.full_resync) {
      station_.replace(top.report);
    } else {
      station_.ingest(top.report);
    }
    settle(i, lane, /*delivered=*/true, samples);
  };
  // An aggregating round cannot fail, so reports reach the station inside
  // the lanes and the convergecast is charged once every lane's sample
  // count is known.
  if (!aggregate) return run_round(p, step);
  return run_round(p, step,
                   std::bind_front(&TreeNetwork::account_convergecast, this));
}

void TreeNetwork::account_convergecast(const std::vector<NodeLane>& lanes) {
  // Process slots bottom-up; each node forwards its subtree's samples (plus
  // one n_i scalar per subtree node) to its parent in as few frames as
  // possible.
  const std::size_t slots = lanes.size() + 1;
  std::vector<std::size_t> subtree_samples(slots, 0);
  std::vector<std::size_t> subtree_nodes(slots, 0);
  for (std::size_t slot = slots - 1; slot >= 1; --slot) {
    const std::size_t node = slot - 1;
    subtree_samples[slot] += lanes[node].new_samples;
    subtree_nodes[slot] += 1;
    link_.send(node, report_bytes(subtree_samples[slot], subtree_nodes[slot]),
               Direction::kUplink, stats_, &level_stats_[depth(node)]);
    const std::size_t parent = parent_slot(slot, config_.fanout);
    subtree_samples[parent] += subtree_samples[slot];
    subtree_nodes[parent] += subtree_nodes[slot];
  }
}

}  // namespace prc::iot
