// The simulated air interface shared by FlatNetwork and TreeNetwork.
//
// A Link owns every source of channel randomness of one network: a private
// channel RNG stream per node and the FaultSchedule (churn, bursty loss,
// duplication).  Unreliable links are modeled as per-frame Bernoulli loss,
// optionally layered with the schedule's Gilbert–Elliott burst channel, with
// retransmission: a lost frame costs its bytes again, which is how loss shows
// up in the paper's cost metric (energy/bandwidth).  With max_attempts == 0
// retransmission is unbounded and every frame eventually arrives; with a
// bounded budget a frame can be abandoned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "iot/faults.h"

namespace prc::iot {

/// Byte/message accounting, split by direction.
struct CommunicationStats {
  std::size_t downlink_messages = 0;  // base station -> nodes
  std::size_t downlink_bytes = 0;
  std::size_t uplink_messages = 0;  // nodes -> base station
  std::size_t uplink_bytes = 0;
  std::size_t retransmissions = 0;
  std::size_t corrupted_frames = 0;  // CRC-detected corruptions (byte mode)
  std::size_t samples_transferred = 0;
  std::size_t piggybacked_reports = 0;  // reports that rode on heartbeats
  std::size_t frames_attempted = 0;   // logical frames handed to the link
  std::size_t frames_delivered = 0;   // logical frames that got through
  std::size_t dropped_frames = 0;     // abandoned after max_attempts
  std::size_t duplicated_frames = 0;  // delivered twice; deduped by station
  std::size_t backoff_slots = 0;      // exponential-backoff slots waited

  std::size_t total_bytes() const noexcept {
    return downlink_bytes + uplink_bytes;
  }

  /// Accumulates another lane's counters.  Parallel rounds account each
  /// node's traffic into a private CommunicationStats and merge the lanes
  /// serially in node order afterwards.
  CommunicationStats& operator+=(const CommunicationStats& other) noexcept {
    downlink_messages += other.downlink_messages;
    downlink_bytes += other.downlink_bytes;
    uplink_messages += other.uplink_messages;
    uplink_bytes += other.uplink_bytes;
    retransmissions += other.retransmissions;
    corrupted_frames += other.corrupted_frames;
    samples_transferred += other.samples_transferred;
    piggybacked_reports += other.piggybacked_reports;
    frames_attempted += other.frames_attempted;
    frames_delivered += other.frames_delivered;
    dropped_frames += other.dropped_frames;
    duplicated_frames += other.duplicated_frames;
    backoff_slots += other.backoff_slots;
    return *this;
  }
};

/// Per-depth traffic accounting (tree model).
struct TreeLevelStats {
  std::size_t links_crossed = 0;
  std::size_t bytes = 0;
};

enum class Direction : bool { kDownlink, kUplink };

class Link {
 public:
  /// Optional receiver-side check of an attempt the channel delivered.  It
  /// may draw from the node's channel stream (passed in) and returns false
  /// when the receiver rejects the frame — a CRC-detected corruption, which
  /// is retransmitted like a loss.
  using Acceptor = std::function<bool(Rng& channel)>;

  /// Node i's channel stream is split number k + i of the master Rng(seed):
  /// the network splits the k node sampling streams first, so those keep
  /// their values, and every node's link randomness is an independent child
  /// a parallel round can consume without ordering constraints.
  Link(std::uint64_t seed, std::size_t nodes, double frame_loss_probability,
       std::size_t max_attempts, const FaultConfig& faults);

  const FaultSchedule& faults() const noexcept { return faults_; }
  FaultSchedule& faults() noexcept { return faults_; }

  /// Sends one logical frame to or from `node`, retransmitting within the
  /// attempt budget with exponential backoff, and returns whether it got
  /// through.  Every attempt is charged to `stats` (a per-node lane during a
  /// parallel round) and, when given, to `level`.  Per attempt the node's
  /// i.i.d. loss draw comes first, then the burst channel steps (even when
  /// the i.i.d. draw already lost the frame: the fade process evolves with
  /// every attempt on the air), then `accept` runs if the channel delivered.
  bool send(std::size_t node, std::size_t frame_bytes, Direction direction,
            CommunicationStats& stats, TreeLevelStats* level = nullptr,
            const Acceptor& accept = {});

  /// Post-delivery duplication of a frame `send` just delivered: charges
  /// the duplicate's bytes when the fault schedule duplicates it.  The
  /// station discards the copy by sequence number, so it is never ingested
  /// twice.
  void duplicate(std::size_t node, std::size_t frame_bytes,
                 Direction direction, CommunicationStats& stats);

 private:
  std::vector<Rng> channels_;
  FaultSchedule faults_;
  double frame_loss_probability_ = 0.0;
  std::size_t max_attempts_ = 0;
};

}  // namespace prc::iot
