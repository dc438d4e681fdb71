#include "iot/codec.h"

#include "common/byte_codec.h"
#include "common/check.h"

namespace prc::iot {
namespace {

constexpr std::uint8_t kMagic = 'P';
constexpr std::size_t kHeaderSize = kMessageHeaderBytes;
// The CRC field's offset; everything before it is covered by the CRC.
constexpr std::size_t kOffCrc = 16;

static_assert(kMessageHeaderBytes == 20, "codec layout assumes 20B header");

/// The frame CRC: the CRC of the pre-CRC header bytes XOR the CRC of the
/// payload (an empty payload contributes 0).
std::uint32_t frame_crc(std::span<const std::uint8_t> frame) {
  PRC_DCHECK(frame.size() >= kHeaderSize) << "frame shorter than header";
  return crc32(frame.data(), kOffCrc) ^
         crc32(frame.data() + kHeaderSize, frame.size() - kHeaderSize);
}

/// The header with a zero CRC field, reserving room for the payload; the
/// CRC is stamped by seal() once the payload is in.
std::vector<std::uint8_t> start_frame(MessageType type, int node_id,
                                      std::uint32_t payload_len,
                                      std::uint32_t sequence) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderSize + payload_len);
  ByteWriter out(frame);
  out.u8(kMagic);
  out.u8(static_cast<std::uint8_t>(type));
  out.u8(0);  // flags (2 bytes, reserved)
  out.u8(0);
  out.u32(static_cast<std::uint32_t>(node_id));
  out.u32(payload_len);
  out.u32(sequence);
  out.u32(0);  // crc
  return frame;
}

void seal(std::vector<std::uint8_t>& frame) {
  ByteWriter(frame).patch_u32(kOffCrc, frame_crc(frame));
}

struct CheckedFrame {
  int node_id = 0;
  ByteReader<CodecError> payload;
};

/// Checks magic, type, declared payload length and CRC, in that order, and
/// returns the sender with a reader positioned at the payload.
CheckedFrame check_frame(std::span<const std::uint8_t> frame,
                         MessageType expected) {
  if (frame.size() < kHeaderSize) throw CodecError("frame shorter than header");
  ByteReader<CodecError> in(frame, "frame shorter than header");
  if (in.u8() != kMagic) throw CodecError("bad magic");
  if (in.u8() != static_cast<std::uint8_t>(expected)) {
    throw CodecError("unexpected message type");
  }
  in.bytes(2);  // flags
  const auto node_id = static_cast<int>(in.u32());
  const std::uint32_t payload_len = in.u32();
  if (frame.size() != kHeaderSize + payload_len) {
    throw CodecError("payload length mismatch");
  }
  in.u32();  // sequence
  if (in.u32() != frame_crc(frame)) throw CodecError("crc mismatch");
  return {node_id, in};
}

}  // namespace

std::vector<std::uint8_t> encode(const SampleRequest& message,
                                 std::uint32_t sequence) {
  auto frame = start_frame(MessageType::kSampleRequest, message.node_id,
                           sizeof(double), sequence);
  ByteWriter(frame).f64(message.target_p);
  seal(frame);
  return frame;
}

std::vector<std::uint8_t> encode(const SampleReport& message,
                                 std::uint32_t sequence) {
  const auto payload_len = static_cast<std::uint32_t>(
      sizeof(std::uint64_t) + message.new_samples.size() * kSampleWireBytes);
  auto frame = start_frame(MessageType::kSampleReport, message.node_id,
                           payload_len, sequence);
  ByteWriter out(frame);
  out.u64(static_cast<std::uint64_t>(message.data_count));
  for (const auto& sample : message.new_samples) {
    out.f64(sample.value);
    out.u64(sample.rank);
  }
  seal(frame);
  return frame;
}

std::vector<std::uint8_t> encode(const Heartbeat& message,
                                 std::uint32_t sequence) {
  auto frame = start_frame(MessageType::kHeartbeat, message.node_id, 0,
                           sequence);
  seal(frame);
  return frame;
}

MessageType peek_type(std::span<const std::uint8_t> frame) {
  if (frame.size() < kHeaderSize) throw CodecError("frame shorter than header");
  ByteReader<CodecError> in(frame, "frame shorter than header");
  if (in.u8() != kMagic) throw CodecError("bad magic");
  const auto type = static_cast<MessageType>(in.u8());
  switch (type) {
    case MessageType::kSampleRequest:
    case MessageType::kSampleReport:
    case MessageType::kHeartbeat:
      return type;
  }
  throw CodecError("unknown message type");
}

SampleRequest decode_sample_request(std::span<const std::uint8_t> frame) {
  auto checked = check_frame(frame, MessageType::kSampleRequest);
  if (checked.payload.remaining() != sizeof(double)) {
    throw CodecError("sample request payload size");
  }
  return SampleRequest{checked.node_id, checked.payload.f64()};
}

SampleReport decode_sample_report(std::span<const std::uint8_t> frame) {
  auto checked = check_frame(frame, MessageType::kSampleReport);
  auto& payload = checked.payload;
  if (payload.remaining() < sizeof(std::uint64_t) ||
      (payload.remaining() - sizeof(std::uint64_t)) % kSampleWireBytes != 0) {
    throw CodecError("sample report payload size");
  }
  SampleReport message;
  message.node_id = checked.node_id;
  message.data_count = static_cast<std::size_t>(payload.u64());
  message.new_samples.reserve(payload.remaining() / kSampleWireBytes);
  while (!payload.exhausted()) {
    sampling::RankedValue sample;
    sample.value = payload.f64();
    sample.rank = payload.u64();
    message.new_samples.push_back(sample);
  }
  return message;
}

Heartbeat decode_heartbeat(std::span<const std::uint8_t> frame) {
  return Heartbeat{check_frame(frame, MessageType::kHeartbeat).node_id};
}

}  // namespace prc::iot
