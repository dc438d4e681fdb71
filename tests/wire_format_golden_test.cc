// Byte-exact pins for every persistent or on-the-wire format: the sampling
// protocol frames, the market write-ahead log records and the base-station
// checkpoint.  Each expectation is the hex of one encode, followed by a
// decode of those bytes.  A diff here is a format change (old logs and
// checkpoints stop reading back), never a re-baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "iot/base_station.h"
#include "iot/codec.h"
#include "market/ledger.h"
#include "market/wal.h"

namespace prc {
namespace {

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t byte : bytes) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0x0f]);
  }
  return out;
}

constexpr double kSubnormal = std::numeric_limits<double>::denorm_min();

TEST(WireFormatGoldenTest, SampleRequestFrame) {
  const iot::SampleRequest request{7, -0.0};
  const auto frame = iot::encode(request, /*sequence=*/0x01020304);
  EXPECT_EQ(hex(frame),
            "50010000070000000800000004030201b08deb7a"
            "0000000000000080");
  const auto decoded = iot::decode_sample_request(frame);
  EXPECT_EQ(decoded.node_id, 7);
  EXPECT_EQ(decoded.target_p, 0.0);
  EXPECT_TRUE(std::signbit(decoded.target_p));
}

TEST(WireFormatGoldenTest, SampleReportFrame) {
  iot::SampleReport report;
  report.node_id = 300;
  report.data_count = 0x0102030405060708ull;
  report.new_samples = {{-0.0, 1}, {kSubnormal, 0xfffffffffull}, {-2.5, 42}};
  const auto frame = iot::encode(report, /*sequence=*/9);
  EXPECT_EQ(hex(frame),
            "500200002c0100003800000009000000e7e70949"
            "080706050403020100000000000000800100000000000000"
            "0100000000000000ffffffff0f00000000000000000004c0"
            "2a00000000000000");
  const auto decoded = iot::decode_sample_report(frame);
  EXPECT_EQ(decoded.node_id, 300);
  EXPECT_EQ(decoded.data_count, 0x0102030405060708ull);
  ASSERT_EQ(decoded.new_samples.size(), 3u);
  EXPECT_TRUE(std::signbit(decoded.new_samples[0].value));
  EXPECT_EQ(decoded.new_samples[0].rank, 1u);
  EXPECT_EQ(decoded.new_samples[1].value, kSubnormal);
  EXPECT_EQ(decoded.new_samples[1].rank, 0xfffffffffull);
  EXPECT_EQ(decoded.new_samples[2].value, -2.5);
  EXPECT_EQ(decoded.new_samples[2].rank, 42u);
}

TEST(WireFormatGoldenTest, HeartbeatFrame) {
  const auto frame =
      iot::encode(iot::Heartbeat{65536}, /*sequence=*/0xffffffffu);
  EXPECT_EQ(hex(frame),
            "500300000000010000000000ffffffff95a2e604");
  EXPECT_EQ(iot::decode_heartbeat(frame).node_id, 65536);
}

TEST(WireFormatGoldenTest, WalIntentRecord) {
  market::wal::IntentRecord intent;
  intent.wal_sequence = 0x1122334455667788ull;
  intent.consumer_id = "alice";
  intent.range = {-0.0, 110.25};
  intent.spec = {0.1, 0.5};
  intent.epsilon_amplified = 0.0123456789;
  const auto bytes = market::wal::encode_intent(intent);
  EXPECT_EQ(hex(bytes),
            "4c010100310000008877665544332211355a5141"
            "05000000616c69636500000000000000800000000000905b"
            "409a9999999999b93f000000000000e03fe6b5faf8b04889"
            "3f");
  const auto decoded = market::wal::decode_record(bytes, 0);
  ASSERT_EQ(decoded.type, market::wal::RecordType::kIntent);
  EXPECT_EQ(decoded.encoded_size, bytes.size());
  EXPECT_EQ(decoded.intent.wal_sequence, 0x1122334455667788ull);
  EXPECT_EQ(decoded.intent.consumer_id, "alice");
  EXPECT_TRUE(std::signbit(decoded.intent.range.lower));
  EXPECT_EQ(decoded.intent.range.upper, 110.25);
  EXPECT_EQ(decoded.intent.spec.alpha.value(), 0.1);
  EXPECT_EQ(decoded.intent.spec.delta.value(), 0.5);
  EXPECT_EQ(decoded.intent.epsilon_amplified.value(), 0.0123456789);
}

market::wal::CommitRecord golden_commit(bool degraded) {
  market::wal::CommitRecord commit;
  commit.wal_sequence = 12;
  commit.intent_sequence = 11;
  commit.transaction.sequence = 5;
  // Non-ASCII bytes: UTF-8 "zürich" plus a lone 0xff.
  commit.transaction.consumer_id = "z\xc3\xbcrich\xff";
  commit.transaction.range = {60.0, 110.0};
  commit.transaction.spec = {0.05, 0.9};
  commit.transaction.price = 3.75;
  commit.transaction.epsilon_amplified = 0.25;
  commit.transaction.coverage = 0.875;
  commit.transaction.degraded = degraded;
  return commit;
}

void expect_commit_round_trip(const std::vector<std::uint8_t>& bytes,
                              bool degraded) {
  const auto decoded = market::wal::decode_record(bytes, 0);
  ASSERT_EQ(decoded.type, market::wal::RecordType::kCommit);
  EXPECT_EQ(decoded.encoded_size, bytes.size());
  EXPECT_EQ(decoded.commit.wal_sequence, 12u);
  EXPECT_EQ(decoded.commit.intent_sequence, 11u);
  const auto& transaction = decoded.commit.transaction;
  EXPECT_EQ(transaction.sequence, 5u);
  EXPECT_EQ(transaction.consumer_id, "z\xc3\xbcrich\xff");
  EXPECT_EQ(transaction.range.lower, 60.0);
  EXPECT_EQ(transaction.range.upper, 110.0);
  EXPECT_EQ(transaction.spec.alpha.value(), 0.05);
  EXPECT_EQ(transaction.spec.delta.value(), 0.9);
  EXPECT_EQ(transaction.price, 3.75);
  EXPECT_EQ(transaction.epsilon_amplified.value(), 0.25);
  EXPECT_EQ(transaction.coverage, 0.875);
  EXPECT_EQ(transaction.degraded, degraded);
}

TEST(WireFormatGoldenTest, WalCommitRecordDegraded) {
  const auto bytes = market::wal::encode_commit(golden_commit(true));
  EXPECT_EQ(hex(bytes),
            "4c010200550000000c000000000000005ca36f16"
            "0b000000000000000500000000000000080000007ac3bc72"
            "696368ff0000000000004e400000000000805b409a999999"
            "9999a93fcdccccccccccec3f0000000000000e4000000000"
            "0000d03f000000000000ec3f01");
  expect_commit_round_trip(bytes, true);
}

TEST(WireFormatGoldenTest, WalCommitRecordHealthy) {
  const auto bytes = market::wal::encode_commit(golden_commit(false));
  EXPECT_EQ(hex(bytes),
            "4c010200550000000c00000000000000ca936861"
            "0b000000000000000500000000000000080000007ac3bc72"
            "696368ff0000000000004e400000000000805b409a999999"
            "9999a93fcdccccccccccec3f0000000000000e4000000000"
            "0000d03f000000000000ec3f00");
  expect_commit_round_trip(bytes, false);
}

TEST(WireFormatGoldenTest, WalCheckpointRecord) {
  market::LedgerSnapshot snapshot;
  snapshot.next_sequence = 42;
  snapshot.total_revenue = 512.125;
  snapshot.total_epsilon = 0.75;
  snapshot.orphaned_epsilon = 0.125;
  snapshot.degraded_sales = 3;
  snapshot.consumers = {{"alice", 100.5, 0.25}, {"bob", 411.625, 0.5}};
  const auto bytes = market::wal::encode_checkpoint(snapshot, 99);
  EXPECT_EQ(hex(bytes),
            "4c0103005c0000006300000000000000dc3cd808"
            "2a000000000000000000000000018040000000000000e83f"
            "000000000000c03f03000000000000000200000005000000"
            "616c6963650000000000205940000000000000d03f030000"
            "00626f620000000000ba7940000000000000e03f");
  const auto decoded = market::wal::decode_record(bytes, 0);
  ASSERT_EQ(decoded.type, market::wal::RecordType::kCheckpoint);
  EXPECT_EQ(decoded.wal_sequence, 99u);
  EXPECT_EQ(decoded.encoded_size, bytes.size());
  const auto& restored = decoded.checkpoint;
  EXPECT_EQ(restored.next_sequence, 42u);
  EXPECT_EQ(restored.total_revenue, 512.125);
  EXPECT_EQ(restored.total_epsilon.value(), 0.75);
  EXPECT_EQ(restored.orphaned_epsilon.value(), 0.125);
  EXPECT_EQ(restored.degraded_sales, 3u);
  ASSERT_EQ(restored.consumers.size(), 2u);
  EXPECT_EQ(restored.consumers[0].consumer_id, "alice");
  EXPECT_EQ(restored.consumers[0].spend, 100.5);
  EXPECT_EQ(restored.consumers[0].epsilon.value(), 0.25);
  EXPECT_EQ(restored.consumers[1].consumer_id, "bob");
  EXPECT_EQ(restored.consumers[1].spend, 411.625);
  EXPECT_EQ(restored.consumers[1].epsilon.value(), 0.5);
}

TEST(WireFormatGoldenTest, BaseStationCheckpoint) {
  iot::BaseStation station(3);
  station.replace({0, 10, {{1.5, 2}, {4.0, 7}}});
  station.replace({1, 3, {{-0.0, 1}}});
  station.replace({2, 5, {{kSubnormal, 3}, {9.25, 4}}});
  // Three rounds, each refreshing fewer nodes: p_i = 0.5, 0.2, 0.75.
  station.commit_round(0.2);
  station.commit_round(0.5, {true, false, true});
  station.commit_round(0.75, {false, false, true});
  const auto bytes = station.serialize();
  EXPECT_EQ(hex(bytes),
            "505243530200000003000000000000000000e83f"
            "01000000000000e03f3c0000005002000000000000280000"
            "0000000000c7fd81760a00000000000000000000000000f8"
            "3f0200000000000000000000000000104007000000000000"
            "00019a9999999999c93f2c00000050020000010000001800"
            "0000000000008837bfe90300000000000000000000000000"
            "0080010000000000000001000000000000e83f3c00000050"
            "020000020000002800000000000000f87eb0130500000000"
            "000000010000000000000003000000000000000000000000"
            "8022400400000000000000");

  const auto restored = iot::BaseStation::deserialize(bytes);
  EXPECT_EQ(restored.node_count(), 3u);
  EXPECT_EQ(restored.sampling_probability(), 0.75);
  EXPECT_EQ(restored.node_probabilities(),
            (std::vector<double>{0.5, 0.2, 0.75}));
  EXPECT_EQ(restored.total_data_count(), 18u);
  EXPECT_EQ(restored.cached_sample_count(), 5u);
  const auto views = restored.node_views();
  ASSERT_EQ(views.size(), 3u);
  EXPECT_TRUE(std::signbit(views[1].samples->samples()[0].value));
  EXPECT_EQ(views[2].samples->samples()[0].value, kSubnormal);
  EXPECT_EQ(restored.serialize(), bytes);
}

}  // namespace
}  // namespace prc
