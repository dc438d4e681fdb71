#include "iot/codec.h"

#include <gtest/gtest.h>

namespace prc::iot {
namespace {

TEST(CodecTest, SampleRequestRoundTrip) {
  const SampleRequest original{42, 0.37};
  const auto frame = encode(original, /*sequence=*/7);
  EXPECT_EQ(frame.size(), original.wire_size());
  EXPECT_EQ(peek_type(frame), MessageType::kSampleRequest);
  const auto decoded = decode_sample_request(frame);
  EXPECT_EQ(decoded.node_id, 42);
  EXPECT_DOUBLE_EQ(decoded.target_p, 0.37);
}

TEST(CodecTest, SampleReportRoundTrip) {
  SampleReport original;
  original.node_id = 3;
  original.data_count = 9876;
  original.new_samples = {{1.5, 2}, {-7.25, 19}, {3.14159, 4096}};
  const auto frame = encode(original, 11);
  EXPECT_EQ(frame.size(), original.wire_size());
  EXPECT_EQ(peek_type(frame), MessageType::kSampleReport);
  const auto decoded = decode_sample_report(frame);
  EXPECT_EQ(decoded.node_id, 3);
  EXPECT_EQ(decoded.data_count, 9876u);
  ASSERT_EQ(decoded.new_samples.size(), 3u);
  EXPECT_EQ(decoded.new_samples[0], original.new_samples[0]);
  EXPECT_EQ(decoded.new_samples[1], original.new_samples[1]);
  EXPECT_EQ(decoded.new_samples[2], original.new_samples[2]);
}

TEST(CodecTest, EmptyReportRoundTrip) {
  SampleReport original;
  original.node_id = 0;
  original.data_count = 0;
  const auto frame = encode(original);
  EXPECT_EQ(frame.size(), original.wire_size());
  const auto decoded = decode_sample_report(frame);
  EXPECT_TRUE(decoded.new_samples.empty());
}

TEST(CodecTest, HeartbeatRoundTrip) {
  const Heartbeat original{12};
  const auto frame = encode(original, 99);
  EXPECT_EQ(frame.size(), original.wire_size());
  EXPECT_EQ(decode_heartbeat(frame).node_id, 12);
}

TEST(CodecTest, EncodedSizeMatchesWireSizeModel) {
  // The whole communication-cost model rests on wire_size(); the codec must
  // agree byte-for-byte for every payload size.
  for (std::size_t samples : {0u, 1u, 16u, 64u, 257u}) {
    SampleReport report;
    report.node_id = 1;
    report.data_count = samples * 10;
    for (std::size_t i = 0; i < samples; ++i) {
      report.new_samples.push_back({static_cast<double>(i), i + 1});
    }
    EXPECT_EQ(encode(report).size(), report.wire_size()) << samples;
  }
}

TEST(CodecTest, RejectsCorruptedFrames) {
  const auto frame = encode(SampleRequest{1, 0.5});
  // Truncation.
  std::vector<std::uint8_t> truncated(frame.begin(), frame.begin() + 10);
  EXPECT_THROW(decode_sample_request(truncated), CodecError);
  // Bad magic.
  auto bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_THROW(decode_sample_request(bad_magic), CodecError);
  EXPECT_THROW(peek_type(bad_magic), CodecError);
  // Flipped payload bit -> CRC mismatch.
  auto flipped = frame;
  flipped.back() ^= 0x01;
  EXPECT_THROW(decode_sample_request(flipped), CodecError);
  // Flipped header bit -> CRC mismatch.
  auto flipped_header = frame;
  flipped_header[5] ^= 0x80;
  EXPECT_THROW(decode_sample_request(flipped_header), CodecError);
}

TEST(CodecTest, RejectsTypeConfusion) {
  const auto request = encode(SampleRequest{1, 0.5});
  EXPECT_THROW(decode_sample_report(request), CodecError);
  EXPECT_THROW(decode_heartbeat(request), CodecError);
  const auto beat = encode(Heartbeat{2});
  EXPECT_THROW(decode_sample_request(beat), CodecError);
}

TEST(CodecTest, RejectsUnknownType) {
  auto frame = encode(Heartbeat{1});
  frame[1] = 77;  // not a MessageType; lint:allow index (fresh frame)
  EXPECT_THROW(peek_type(frame), CodecError);
}

TEST(CodecTest, RejectsRaggedReportPayload) {
  auto frame = encode(SampleReport{1, 5, {{1.0, 1}}});
  // Grow payload by one byte and fix the declared length so only the
  // 16-byte alignment check can catch it.
  frame.push_back(0);
  frame[8] =  // lint:allow index (fresh frame >= header size)
      static_cast<std::uint8_t>(frame.size() - 20);
  EXPECT_THROW(decode_sample_report(frame), CodecError);
}

}  // namespace
}  // namespace prc::iot
