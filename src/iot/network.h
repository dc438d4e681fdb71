// The flat IoT network simulator.
//
// Wires k sensor nodes to one base station over the shared Link
// (iot/link.h) and runs top-up rounds on the shared round driver
// (iot/simulated_network.h), accounting every byte on the air.  Under a
// bounded retry budget a round can complete PARTIALLY — the returned
// RoundReport says which nodes actually reached the round target.
#pragma once

#include <cstddef>
#include <vector>

#include "iot/faults.h"
#include "iot/link.h"
#include "iot/messages.h"
#include "iot/round_report.h"
#include "iot/simulated_network.h"
#include "query/range_query.h"

namespace prc::iot {

struct NetworkConfig {
  /// Per-frame loss probability on both directions (retransmitted until
  /// delivered or the attempt budget runs out; each attempt is charged).
  double frame_loss_probability = 0.0;
  /// Byte-accurate mode: every uplink report frame is really serialized
  /// through the wire codec and decoded at the base station, so the
  /// simulation exercises the actual byte format.  Heartbeat piggybacking
  /// is disabled in this mode (piggybacked deltas have no standalone frame
  /// to encode).
  bool byte_accurate = false;
  /// Per-transmission probability that one random bit of the encoded frame
  /// flips in flight (only meaningful with byte_accurate).  The CRC detects
  /// the corruption and the frame is retransmitted; every attempt is
  /// charged.
  double bit_corruption_probability = 0.0;
  /// Master seed for node sampling streams and the loss process.
  std::uint64_t seed = 7;
  /// Seeded failure processes (churn, bursty loss, duplication).  The
  /// default is disabled and draws no randomness, so a fault-free run is
  /// byte-identical to the seed simulator.
  FaultConfig faults;
  /// Per-frame transmission budget.  0 = retransmit until delivered (seed
  /// behavior; every round is complete).  With a bound, an exhausted frame
  /// is dropped, the affected node keeps its previous station-side state,
  /// and the round report records the partial outcome.
  std::size_t max_attempts = 0;
};

class FlatNetwork final : public SimulatedNetwork {
 public:
  /// One entry of `node_data` per node; nodes keep their multiset private.
  FlatNetwork(std::vector<std::vector<double>> node_data,
              NetworkConfig config = {});

  /// Runs a top-up round raising every node's inclusion probability to `p`.
  /// Generates no traffic when p <= the current probability.  Returns the
  /// round's report; under faults / bounded retries it may be partial.
  RoundReport ensure_sampling_probability(double p) override;

  /// Continuous collection: node `node` observes new readings.  The node
  /// samples them locally at the current probability; the base station's
  /// cached copy becomes stale until the next refresh_samples().
  void append_data(std::size_t node, const std::vector<double>& values);

  /// Resynchronizes every dirty node: the node retransmits its full sample
  /// (ranks shifted when data was appended), the base station replaces its
  /// cache, and the traffic is charged.  Returns the number of nodes that
  /// resynced.
  std::size_t refresh_samples();

  /// BasicCounting estimate from the base station cache.
  double basic_counting_estimate(const query::RangeQuery& range) const {
    return station_.basic_counting_estimate(range);
  }

 private:
  /// Sends one frame over the link; a delivered frame may be duplicated in
  /// flight (every flat frame can be, in both directions).
  bool send(std::size_t node, std::size_t frame_bytes, Direction direction,
            CommunicationStats& stats, const Link::Acceptor& accept = {});

  /// Moves one report to the station and, once all of it arrived, replaces
  /// (full resync) or extends (delta) the node's cache.  Returns success.
  bool upload(const SampleReport& report, bool full_resync,
              CommunicationStats& stats);

  /// Delivers one report frame; in byte-accurate mode the frame is encoded
  /// for real, may be corrupted in flight, and is decoded behind a CRC
  /// check.  On success `out` holds the frame as the station received it.
  bool deliver_frame(const SampleReport& frame, SampleReport& out,
                     CommunicationStats& stats);

  NetworkConfig config_;
};

}  // namespace prc::iot
