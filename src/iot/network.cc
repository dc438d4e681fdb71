#include "iot/network.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "common/logging.h"
#include "iot/codec.h"

namespace prc::iot {

FlatNetwork::FlatNetwork(std::vector<std::vector<double>> node_data,
                         NetworkConfig config)
    : SimulatedNetwork(std::move(node_data), config.seed,
                       config.frame_loss_probability, config.max_attempts,
                       config.faults),
      config_(config) {
  if (config_.bit_corruption_probability < 0.0 ||
      config_.bit_corruption_probability >= 1.0) {
    throw std::invalid_argument("bit corruption probability must be in [0, 1)");
  }
}

bool FlatNetwork::send(std::size_t node, std::size_t frame_bytes,
                       Direction direction, CommunicationStats& stats,
                       const Link::Acceptor& accept) {
  if (!link_.send(node, frame_bytes, direction, stats, nullptr, accept)) {
    return false;
  }
  link_.duplicate(node, frame_bytes, direction, stats);
  return true;
}

bool FlatNetwork::deliver_frame(const SampleReport& frame, SampleReport& out,
                                CommunicationStats& stats) {
  const auto node = static_cast<std::size_t>(frame.node_id);
  if (!config_.byte_accurate) {
    out = frame;
    return send(node, frame.wire_size(), Direction::kUplink, stats);
  }
  // Byte-accurate path: serialize for real; an attempt that survives the
  // channel may have one bit flipped in flight, and the station's CRC check
  // rejects it.
  const auto encoded = encode(frame);
  return send(node, encoded.size(), Direction::kUplink, stats,
              [&](Rng& channel) {
                auto received = encoded;
                if (channel.bernoulli(config_.bit_corruption_probability)) {
                  const auto byte_index =
                      static_cast<std::size_t>(channel.uniform_int(
                          0, static_cast<std::int64_t>(received.size()) - 1));
                  received[byte_index] ^= static_cast<std::uint8_t>(
                      1u << channel.uniform_int(0, 7));
                }
                try {
                  out = decode_sample_report(received);
                  return true;
                } catch (const CodecError&) {
                  return false;
                }
              });
}

bool FlatNetwork::upload(const SampleReport& report, bool full_resync,
                         CommunicationStats& stats) {
  const auto node = static_cast<std::size_t>(report.node_id);
  const std::size_t samples = report.new_samples.size();
  // Small deltas piggyback on the periodic heartbeat: charge only the
  // sample payload, not an extra frame header.  (A full resync is not a
  // delta, and byte-accurate mode has no standalone frame for a piggybacked
  // delta, so both always frame.)
  if (!full_resync && !config_.byte_accurate &&
      samples <= kHeartbeatPiggybackSamples) {
    if (!send(node, samples * kSampleWireBytes + sizeof(std::uint64_t),
              Direction::kUplink, stats)) {
      return false;
    }
    ++stats.piggybacked_reports;
    station_.ingest(report);
    return true;
  }
  // Delivery is atomic per node: the sender aborts the rest of the burst on
  // the first abandoned frame, and nothing reaches the cache unless every
  // frame arrived — a half-ingested delta would leave the cache in no
  // well-defined probability state, and a partial full sample would
  // silently shrink the node's apparent sample.
  std::vector<SampleReport> arrived;
  std::size_t offset = 0;
  do {
    const std::size_t take = std::min(kMaxSamplesPerFrame, samples - offset);
    const auto first =
        report.new_samples.begin() + static_cast<std::ptrdiff_t>(offset);
    const auto last = first + static_cast<std::ptrdiff_t>(take);
    const SampleReport frame{report.node_id, report.data_count, {first, last}};
    if (!deliver_frame(frame, arrived.emplace_back(), stats)) return false;
    offset += take;
  } while (offset < samples);
  if (!full_resync) {
    for (const auto& frame : arrived) station_.ingest(frame);
    return true;
  }
  SampleReport reassembled{report.node_id, report.data_count, {}};
  for (const auto& frame : arrived) {
    reassembled.new_samples.insert(reassembled.new_samples.end(),
                                   frame.new_samples.begin(),
                                   frame.new_samples.end());
  }
  station_.replace(reassembled);
  return true;
}

RoundReport FlatNetwork::ensure_sampling_probability(double p) {
  return run_round(p, [&](std::size_t i, NodeLane& lane) {
    // The station does not know which nodes crashed; the request goes out
    // regardless (and is charged), exactly like the real downlink.
    if (!send(i, SampleRequest{}.wire_size(), Direction::kDownlink,
              lane.stats)) {
      // The node never heard the request, so its local sampler did not
      // move: the station cache stays consistent, just older.
      lane.outcome = NodeOutcome::kDropped;
      return;
    }
    if (offline(i)) {
      PRC_LOG_DEBUG << "node " << i << " offline; skipping round";
      lane.outcome = prior_outcome(i);
      return;
    }
    const TopUp top = top_up(i, p);
    settle(i, lane, upload(top.report, top.full_resync, lane.stats),
           top.report.new_samples.size());
  });
}

void FlatNetwork::append_data(std::size_t node,
                              const std::vector<double>& values) {
  auto& sensor = nodes_.at(node);
  total_data_count_ += values.size();
  sensor.append_data(values);
}

std::size_t FlatNetwork::refresh_samples() {
  std::size_t resynced = 0;
  for (auto& node : nodes_) {
    if (!node.dirty()) continue;
    if (!node.online()) continue;  // resync deferred until the node rejoins
    const SampleReport report = node.full_report();
    if (upload(report, /*full_resync=*/true, stats_)) {
      ++resynced;
      stats_.samples_transferred += report.new_samples.size();
    } else {
      node.invalidate_cached_sample();
    }
  }
  return resynced;
}

}  // namespace prc::iot
