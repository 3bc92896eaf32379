// Tests for the wire codec: varints, CRC-32, framing, per-protocol state
// payloads, and the corruption -> rejection path. Includes randomized
// round-trip and garbage-robustness properties.
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ssr::wire {
namespace {

TEST(Varint, RoundTripsRepresentativeValues) {
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{300}, std::uint64_t{16383},
        std::uint64_t{16384}, std::uint64_t{0xFFFFFFFF}, UINT64_MAX}) {
    Bytes buf;
    put_varint(buf, v);
    std::size_t offset = 0;
    const auto back = get_varint(buf, offset);
    ASSERT_TRUE(back.has_value()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(Varint, EncodingLengths) {
  Bytes buf;
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 128);
  EXPECT_EQ(buf.size(), 2u);
  buf.clear();
  put_varint(buf, UINT64_MAX);
  EXPECT_EQ(buf.size(), 10u);
}

TEST(Varint, TruncationDetected) {
  Bytes buf;
  put_varint(buf, 300);
  buf.pop_back();  // cut the terminating byte
  std::size_t offset = 0;
  EXPECT_EQ(get_varint(buf, offset), std::nullopt);
}

TEST(Varint, OverlongEncodingRejected) {
  // Eleven continuation bytes can never be a valid varint here.
  Bytes buf(11, 0x80);
  std::size_t offset = 0;
  EXPECT_EQ(get_varint(buf, offset), std::nullopt);
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const std::string s = "123456789";
  const Bytes data(s.begin(), s.end());
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(crc32(Bytes{}), 0u);
}

/// A complete frame around @p payload.
Bytes frame(std::uint64_t ring, std::uint64_t sender, const Bytes& payload) {
  Bytes out;
  encode_frame_v2_into(out, ring, sender, payload);
  return out;
}

/// @p state as a payload.
template <typename S>
Bytes payload_of(const S& state) {
  Bytes out;
  put_state(out, state);
  return out;
}

TEST(FrameV2, RoundTrip) {
  const Bytes payload{9, 8, 7};
  for (std::uint64_t ring : {std::uint64_t{0}, std::uint64_t{1},
                             std::uint64_t{127}, std::uint64_t{128},
                             std::uint64_t{100000}, std::uint64_t{1} << 40}) {
    for (std::uint64_t sender : {std::uint64_t{0}, std::uint64_t{5},
                                 std::uint64_t{300}}) {
      const Bytes framed = frame(ring, sender, payload);
      DecodeError error{};
      const auto decoded = decode_frame_any(framed, &error);
      ASSERT_TRUE(decoded.has_value()) << to_string(error);
      EXPECT_EQ(decoded->ring_id, ring);
      EXPECT_EQ(decoded->sender, sender);
      EXPECT_EQ(decoded->payload, payload);
    }
  }
}

TEST(FrameV2, EmptyPayloadAllowed) {
  const auto decoded = decode_frame_any(frame(3, 7, Bytes{}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(FrameV2, RejectsBadMagic) {
  Bytes framed = frame(3, 1, Bytes{9});
  framed[0] = 0x00;
  DecodeError error{};
  EXPECT_EQ(decode_frame_any(framed, &error), std::nullopt);
  EXPECT_EQ(error, DecodeError::kBadMagic);
}

TEST(FrameV2, RejectsEveryOtherVersion) {
  // Version 1 is the retired frame without a ring-id.
  for (int version : {0, 1, 3, 99}) {
    Bytes framed = frame(7, 1, Bytes{9});
    framed[1] = static_cast<std::uint8_t>(version);
    DecodeError error{};
    EXPECT_EQ(decode_frame_any(framed, &error), std::nullopt);
    EXPECT_EQ(error, DecodeError::kBadVersion) << version;
  }
}

TEST(FrameV2, EveryTruncationRejected) {
  const Bytes framed = frame(100000, 2, Bytes{5, 6, 7, 8});
  for (std::size_t len = 0; len < framed.size(); ++len) {
    DecodeError error{};
    EXPECT_EQ(decode_frame_any(ByteView(framed.data(), len), &error),
              std::nullopt)
        << "prefix of length " << len << " decoded";
    EXPECT_NE(error, DecodeError::kNone);
  }
}

TEST(FrameV2, RejectsPayloadBitFlip) {
  Bytes framed = frame(3, 1, Bytes{0xAA, 0xBB});
  // Flip a payload bit; the CRC must catch it.
  framed[framed.size() - 5] ^= 0x01;
  DecodeError error{};
  EXPECT_EQ(decode_frame_any(framed, &error), std::nullopt);
  EXPECT_EQ(error, DecodeError::kBadChecksum);
}

TEST(FrameV2, CorruptBitsDetectedOrHarmless) {
  // Property: a frame with a few flipped bits either fails to decode, or
  // (vanishingly unlikely with CRC-32, impossible for 1-2 flips) decodes to
  // the original content. It must never decode to a *different* ring,
  // sender or payload.
  Rng rng(123);
  const core::SsrState state{4, false, true};
  const Bytes payload = payload_of(state);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes framed = frame(991, 2, payload);
    corrupt_bits(framed, rng, 1 + rng.below(3));
    const auto decoded = decode_frame_any(framed);
    if (!decoded.has_value()) continue;
    EXPECT_EQ(decoded->ring_id, 991u);
    EXPECT_EQ(decoded->sender, 2u);
    EXPECT_EQ(decoded->payload, payload);
  }
}

TEST(FrameV2, RandomGarbageNeverCrashes) {
  Rng rng(7);
  for (int trial = 0; trial < 5000; ++trial) {
    Bytes junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_NO_THROW({ (void)decode_frame_any(junk); });
  }
}

TEST(FrameV2, ArenaAppendedFramesDecodeIndividually) {
  // The reactor packs a sendmmsg batch into one arena; each frame's bytes
  // must decode independently of its neighbors.
  Bytes arena;
  const std::size_t first_start = arena.size();
  encode_frame_v2_into(arena, 10, 1, Bytes{0xAA});
  const std::size_t second_start = arena.size();
  encode_frame_v2_into(arena, 20, 2, Bytes{0xBB, 0xCC});
  const std::size_t end = arena.size();
  const auto first = decode_frame_any(
      ByteView(arena.data() + first_start, second_start - first_start));
  const auto second = decode_frame_any(
      ByteView(arena.data() + second_start, end - second_start));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->ring_id, 10u);
  EXPECT_EQ(first->payload, (Bytes{0xAA}));
  EXPECT_EQ(second->ring_id, 20u);
  EXPECT_EQ(second->sender, 2u);
  EXPECT_EQ(second->payload, (Bytes{0xBB, 0xCC}));
}

/// decode_frame_view() must agree with the copying decode_frame_any() on
/// @p data: the same verdict and DecodeError, equal fields and payload
/// bytes, and a payload view inside @p data.
void expect_view_agrees(ByteView data) {
  DecodeError any_error{}, view_error{};
  const auto any = decode_frame_any(data, &any_error);
  const auto view = decode_frame_view(data, &view_error);
  ASSERT_EQ(view.has_value(), any.has_value());
  EXPECT_EQ(view_error, any_error);
  if (!view) return;
  EXPECT_EQ(view->ring_id, any->ring_id);
  EXPECT_EQ(view->sender, any->sender);
  EXPECT_EQ(Bytes(view->payload.begin(), view->payload.end()), any->payload);
  EXPECT_GE(view->payload.data(), data.data());
  EXPECT_LE(view->payload.data() + view->payload.size(),
            data.data() + data.size());
}

TEST(FrameView, AgreesOnEveryTruncationAndBitFlip) {
  const Bytes framed = frame(100000, 2, Bytes{5, 6, 7, 8});
  for (std::size_t len = 0; len <= framed.size(); ++len) {
    SCOPED_TRACE("prefix of length " + std::to_string(len));
    expect_view_agrees(ByteView(framed.data(), len));
  }
  for (std::size_t bit = 0; bit < framed.size() * 8; ++bit) {
    SCOPED_TRACE("bit " + std::to_string(bit));
    Bytes flipped = framed;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_view_agrees(flipped);
  }
}

TEST(FrameView, AgreesOnRandomGarbage) {
  // Half of the inputs start with a valid magic and version byte, so the
  // parse reaches the varints, the length and the checksum.
  Rng rng(18);
  for (int trial = 0; trial < 5000; ++trial) {
    Bytes junk(rng.below(40));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    if (junk.size() >= 2 && trial % 2 == 0) {
      junk[0] = kMagic;
      junk[1] = kVersion2;
    }
    expect_view_agrees(junk);
  }
}

TEST(StatePayload, SsrRoundTrip) {
  for (std::uint32_t x : {0u, 1u, 127u, 128u, 1000000u}) {
    for (int flags = 0; flags < 4; ++flags) {
      const core::SsrState s{x, (flags & 2) != 0, (flags & 1) != 0};
      const auto back = decode_state<core::SsrState>(payload_of(s));
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, s);
    }
  }
}

TEST(StatePayload, SsrRejectsBadFlags) {
  Bytes payload;
  put_varint(payload, 3);
  payload.push_back(7);  // flags > 3
  EXPECT_EQ(decode_state<core::SsrState>(payload), std::nullopt);
}

TEST(StatePayload, SsrRejectsTrailingBytes) {
  Bytes payload = payload_of(core::SsrState{1, false, true});
  payload.push_back(0);
  EXPECT_EQ(decode_state<core::SsrState>(payload), std::nullopt);
}

TEST(StatePayload, KStateRoundTrip) {
  for (std::uint32_t x : {0u, 5u, 4096u}) {
    const auto back = decode_state<dijkstra::KStateLocal>(
        payload_of(dijkstra::KStateLocal{x}));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->x, x);
  }
}

TEST(StatePayload, DualRoundTrip) {
  const dijkstra::DualLocal s{3, 900};
  const auto back = decode_state<dijkstra::DualLocal>(payload_of(s));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
}

TEST(StatePayload, DualRejectsTruncation) {
  Bytes payload;
  put_varint(payload, 3);  // only one of the two counters
  EXPECT_EQ(decode_state<dijkstra::DualLocal>(payload), std::nullopt);
}

TEST(StatePayload, PutStateAppends) {
  Bytes payload;
  put_varint(payload, 2);  // the reactor's destination varint
  put_state(payload, dijkstra::DualLocal{3, 900});
  EXPECT_EQ(payload, (Bytes{2, 3, 0x84, 0x07}));
}

TEST(CorruptBits, RequiresNonEmptyFrame) {
  Bytes empty;
  Rng rng(1);
  EXPECT_THROW(corrupt_bits(empty, rng), std::invalid_argument);
}

TEST(DecodeErrorNames, AllDistinct) {
  EXPECT_EQ(to_string(DecodeError::kNone), "none");
  EXPECT_EQ(to_string(DecodeError::kTruncated), "truncated");
  EXPECT_EQ(to_string(DecodeError::kBadMagic), "bad-magic");
  EXPECT_EQ(to_string(DecodeError::kBadVersion), "bad-version");
  EXPECT_EQ(to_string(DecodeError::kBadLength), "bad-length");
  EXPECT_EQ(to_string(DecodeError::kBadChecksum), "bad-checksum");
}

}  // namespace
}  // namespace ssr::wire
