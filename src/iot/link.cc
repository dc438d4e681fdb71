#include "iot/link.h"

#include <algorithm>
#include <stdexcept>

namespace prc::iot {
namespace {

// Exponential backoff after the a-th failed attempt (1-based), capped so a
// long outage cannot overflow the slot counter: 1, 2, 4, ..., 1024.
std::size_t backoff_slots_after(std::size_t failed_attempts) {
  return std::size_t{1} << std::min<std::size_t>(failed_attempts - 1, 10);
}

void charge(Direction direction, std::size_t frame_bytes,
            CommunicationStats& stats) {
  if (direction == Direction::kUplink) {
    ++stats.uplink_messages;
    stats.uplink_bytes += frame_bytes;
  } else {
    ++stats.downlink_messages;
    stats.downlink_bytes += frame_bytes;
  }
}

}  // namespace

Link::Link(std::uint64_t seed, std::size_t nodes,
           double frame_loss_probability, std::size_t max_attempts,
           const FaultConfig& faults)
    : faults_(faults, nodes),
      frame_loss_probability_(frame_loss_probability),
      max_attempts_(max_attempts) {
  if (frame_loss_probability < 0.0 || frame_loss_probability >= 1.0) {
    throw std::invalid_argument("frame loss probability must be in [0, 1)");
  }
  Rng master(seed);
  // Skip the node sampling streams; the channel streams come after them.
  for (std::size_t i = 0; i < nodes; ++i) (void)master.split();
  channels_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) channels_.push_back(master.split());
}

bool Link::send(std::size_t node, std::size_t frame_bytes,
                Direction direction, CommunicationStats& stats,
                TreeLevelStats* level, const Acceptor& accept) {
  Rng& channel = channels_[node];
  ++stats.frames_attempted;
  for (std::size_t attempts = 1;; ++attempts) {
    charge(direction, frame_bytes, stats);
    if (level != nullptr) {
      ++level->links_crossed;
      level->bytes += frame_bytes;
    }
    const bool iid_lost = channel.bernoulli(frame_loss_probability_);
    const bool burst_lost = faults_.attempt_lost(node);
    bool delivered = !iid_lost && !burst_lost;
    if (delivered && accept && !accept(channel)) {
      ++stats.corrupted_frames;
      delivered = false;
    }
    if (delivered) {
      ++stats.frames_delivered;
      return true;
    }
    ++stats.retransmissions;
    if (max_attempts_ != 0 && attempts >= max_attempts_) {
      ++stats.dropped_frames;
      return false;
    }
    stats.backoff_slots += backoff_slots_after(attempts);
  }
}

void Link::duplicate(std::size_t node, std::size_t frame_bytes,
                     Direction direction, CommunicationStats& stats) {
  if (!faults_.duplicate_frame(node)) return;
  ++stats.duplicated_frames;
  charge(direction, frame_bytes, stats);
}

}  // namespace prc::iot
