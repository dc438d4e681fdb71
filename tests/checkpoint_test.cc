// Base-station checkpointing: serialize/restore the sample cache so a
// broker can restart without a collection round.
#include <gtest/gtest.h>

#include "iot/base_station.h"
#include "iot/codec.h"
#include "iot/network.h"
#include "query/range_query.h"

namespace prc::iot {
namespace {

std::vector<std::vector<double>> grid_node_data(std::size_t nodes,
                                                std::size_t per_node) {
  std::vector<std::vector<double>> data(nodes);
  double v = 0.0;
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t j = 0; j < per_node; ++j) data[i].push_back(v += 1.0);
  }
  return data;
}

TEST(CheckpointTest, RoundTripPreservesEverything) {
  FlatNetwork network(grid_node_data(6, 400));
  network.ensure_sampling_probability(0.35);
  const auto& original = network.base_station();

  const auto bytes = original.serialize();
  const BaseStation restored = BaseStation::deserialize(bytes);

  EXPECT_EQ(restored.node_count(), original.node_count());
  EXPECT_EQ(restored.total_data_count(), original.total_data_count());
  EXPECT_EQ(restored.cached_sample_count(), original.cached_sample_count());
  EXPECT_DOUBLE_EQ(restored.sampling_probability(),
                   original.sampling_probability());
  // Every estimate coincides exactly.
  for (const auto& range : std::vector<query::RangeQuery>{
           {100.5, 900.5}, {0.0, 5000.0}, {1200.5, 1300.5}}) {
    EXPECT_DOUBLE_EQ(restored.rank_counting_estimate(range),
                     original.rank_counting_estimate(range));
    EXPECT_DOUBLE_EQ(restored.basic_counting_estimate(range),
                     original.basic_counting_estimate(range));
  }
}

TEST(CheckpointTest, FreshStationRoundTrips) {
  const BaseStation fresh(3);
  const auto restored = BaseStation::deserialize(fresh.serialize());
  EXPECT_EQ(restored.node_count(), 3u);
  EXPECT_EQ(restored.total_data_count(), 0u);
  EXPECT_DOUBLE_EQ(restored.sampling_probability(), 0.0);
}

TEST(CheckpointTest, RejectsGarbage) {
  EXPECT_THROW(BaseStation::deserialize({}), std::invalid_argument);
  EXPECT_THROW(BaseStation::deserialize({'X', 'Y', 'Z', 'W', 0, 0}),
               std::invalid_argument);
  // Valid prefix, truncated body.
  FlatNetwork network(grid_node_data(2, 50));
  network.ensure_sampling_probability(0.5);
  auto bytes = network.base_station().serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_ANY_THROW(BaseStation::deserialize(bytes));
}

TEST(CheckpointTest, RejectsVersionMismatch) {
  const BaseStation station(1);
  auto bytes = station.serialize();
  bytes[4] = 99;  // bump the version field
  EXPECT_THROW(BaseStation::deserialize(bytes), std::invalid_argument);
}

TEST(CheckpointTest, RejectsNodeCountTheBodyCannotHold) {
  // A valid magic/version header whose node count (bytes 8..11) claims
  // 2^32 - 1 nodes over a one-node body: refused before any per-node
  // allocation, not after reserving ~200 GB of entries.
  auto bytes = BaseStation(1).serialize();
  for (std::size_t i = 8; i < 12; ++i) bytes[i] = 0xFF;
  EXPECT_THROW(BaseStation::deserialize(bytes), std::invalid_argument);
}

TEST(CheckpointTest, CorruptedFrameIsDetected) {
  FlatNetwork network(grid_node_data(2, 200));
  network.ensure_sampling_probability(0.5);
  auto bytes = network.base_station().serialize();
  bytes.back() ^= 0x40;  // flip a bit inside the last node's frame
  EXPECT_THROW(BaseStation::deserialize(bytes), CodecError);
}

TEST(CheckpointTest, RejectsFrameFiledUnderAnotherNode) {
  // A 2-node checkpoint whose slot-1 frame carries node 0's id (with a
  // valid CRC): restoring it would overwrite node 0's samples and leave
  // slot 1 with a probability but no data.
  BaseStation station(2);
  station.replace({0, 4, {{1.0, 1}, {3.0, 3}}});
  station.replace({1, 6, {{2.0, 2}, {5.0, 5}}});
  station.commit_round(0.5);
  auto bytes = station.serialize();
  // Header (magic, version, node count, p) = 20 bytes; each slot is a
  // reported flag, a probability and a u32 frame length before its frame.
  constexpr std::size_t kSlotPrefix = 1 + 8 + 4;
  const std::size_t frame0_size =
      std::size_t{bytes[20 + 9]} | std::size_t{bytes[20 + 10]} << 8;
  const std::size_t frame1 = 20 + kSlotPrefix + frame0_size + kSlotPrefix;
  const std::vector<std::uint8_t> original(
      bytes.begin() + static_cast<std::ptrdiff_t>(frame1), bytes.end());
  SampleReport forged = decode_sample_report(original);
  forged.node_id = 0;
  const auto reframed = encode(forged);
  ASSERT_EQ(reframed.size(), original.size());
  std::copy(reframed.begin(), reframed.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(frame1));
  EXPECT_THROW(BaseStation::deserialize(bytes), std::invalid_argument);
}

TEST(CheckpointTest, RestoredStationAcceptsFurtherRounds) {
  FlatNetwork network(grid_node_data(2, 100));
  network.ensure_sampling_probability(0.2);
  BaseStation restored =
      BaseStation::deserialize(network.base_station().serialize());
  // The restored cache continues to accept protocol traffic: probability
  // stays monotone and replacement resyncs work.
  EXPECT_THROW(restored.commit_round(0.1), std::invalid_argument);
  restored.commit_round(0.5);
  EXPECT_DOUBLE_EQ(restored.sampling_probability(), 0.5);
  SampleReport resync;
  resync.node_id = 0;
  resync.data_count = 120;
  resync.new_samples = {{5.0, 5}, {80.0, 80}};
  restored.replace(resync);
  EXPECT_EQ(restored.total_data_count(), 120u + 100u);
}

}  // namespace
}  // namespace prc::iot
