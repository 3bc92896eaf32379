#include "wire/codec.hpp"

#include <array>

#include "util/assert.hpp"

namespace ssr::wire {

void put_varint(Bytes& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

std::optional<std::uint64_t> get_varint(ByteView data, std::size_t& offset) {
  std::uint64_t value = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (offset >= data.size()) return std::nullopt;
    const std::uint8_t byte = data[offset++];
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return std::nullopt;  // over-long encoding
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const auto table = make_crc_table();
  return table;
}

}  // namespace

std::uint32_t crc32(ByteView data) {
  const auto& table = crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string to_string(DecodeError error) {
  switch (error) {
    case DecodeError::kNone:
      return "none";
    case DecodeError::kTruncated:
      return "truncated";
    case DecodeError::kBadMagic:
      return "bad-magic";
    case DecodeError::kBadVersion:
      return "bad-version";
    case DecodeError::kBadLength:
      return "bad-length";
    case DecodeError::kBadChecksum:
      return "bad-checksum";
  }
  return "unknown";
}

namespace {

/// Appends magic, version, ring-id (v2 only), sender, length, payload and
/// the CRC of all of them.
void put_frame(Bytes& out, std::uint8_t version, std::uint64_t ring_id,
               std::uint64_t sender, ByteView payload) {
  const std::size_t start = out.size();
  out.push_back(kMagic);
  out.push_back(version);
  if (version == kVersion2) put_varint(out, ring_id);
  put_varint(out, sender);
  put_varint(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint32_t crc =
      crc32(ByteView(out.data() + start, out.size() - start));
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
}

}  // namespace

Bytes encode_frame(std::uint64_t sender, ByteView payload) {
  Bytes out;
  out.reserve(payload.size() + 12);
  put_frame(out, kVersion, 0, sender, payload);
  return out;
}

void encode_frame_v2_into(Bytes& out, std::uint64_t ring_id,
                          std::uint64_t sender, ByteView payload) {
  put_frame(out, kVersion2, ring_id, sender, payload);
}

Bytes encode_frame_v2(std::uint64_t ring_id, std::uint64_t sender,
                      ByteView payload) {
  Bytes out;
  out.reserve(payload.size() + 20);
  encode_frame_v2_into(out, ring_id, sender, payload);
  return out;
}

std::optional<FrameView> decode_frame_view(ByteView data, DecodeError* error,
                                           std::uint8_t max_version) {
  auto fail = [&](DecodeError e) -> std::optional<FrameView> {
    if (error != nullptr) *error = e;
    return std::nullopt;
  };
  if (error != nullptr) *error = DecodeError::kNone;
  if (data.size() < 2 + 1 + 1 + 4) return fail(DecodeError::kTruncated);
  if (data[0] != kMagic) return fail(DecodeError::kBadMagic);
  FrameView frame;
  frame.version = data[1];
  if (frame.version < kVersion || frame.version > max_version) {
    return fail(DecodeError::kBadVersion);
  }
  std::size_t offset = 2;
  if (frame.version == kVersion2) {
    const auto ring = get_varint(data, offset);
    if (!ring) return fail(DecodeError::kTruncated);
    frame.ring_id = *ring;
  }
  const auto sender = get_varint(data, offset);
  if (!sender) return fail(DecodeError::kTruncated);
  const auto length = get_varint(data, offset);
  if (!length) return fail(DecodeError::kTruncated);
  if (*length > data.size() || offset + *length + 4 != data.size()) {
    return fail(DecodeError::kBadLength);
  }
  const std::size_t crc_offset = offset + *length;
  std::uint32_t stored = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(data[crc_offset + i]) << (8 * i);
  }
  if (crc32(data.first(crc_offset)) != stored) {
    return fail(DecodeError::kBadChecksum);
  }
  frame.sender = *sender;
  frame.payload = data.subspan(offset, *length);
  return frame;
}

std::optional<Frame> decode_frame(ByteView data, DecodeError* error) {
  const auto view = decode_frame_view(data, error, kVersion);
  if (!view) return std::nullopt;
  return Frame{view->sender, Bytes(view->payload.begin(), view->payload.end())};
}

std::optional<FrameV2> decode_frame_any(ByteView data, DecodeError* error) {
  const auto view = decode_frame_view(data, error);
  if (!view) return std::nullopt;
  return FrameV2{view->version, view->ring_id, view->sender,
                 Bytes(view->payload.begin(), view->payload.end())};
}

void corrupt_bits(Bytes& frame, Rng& rng, std::size_t flips) {
  SSR_REQUIRE(!frame.empty(), "cannot corrupt an empty frame");
  for (std::size_t i = 0; i < flips; ++i) {
    const auto byte = static_cast<std::size_t>(rng.below(frame.size()));
    const auto bit = static_cast<int>(rng.below(8));
    frame[byte] ^= static_cast<std::uint8_t>(1u << bit);
  }
}

Bytes encode_state(const core::SsrState& state) {
  Bytes out;
  put_varint(out, state.x);
  out.push_back(static_cast<std::uint8_t>((state.rts ? 2 : 0) |
                                          (state.tra ? 1 : 0)));
  return out;
}

std::optional<core::SsrState> decode_ssr_state(ByteView payload) {
  std::size_t offset = 0;
  const auto x = get_varint(payload, offset);
  if (!x || *x > UINT32_MAX) return std::nullopt;
  if (offset + 1 != payload.size()) return std::nullopt;
  const std::uint8_t flags = payload[offset];
  if (flags > 3) return std::nullopt;
  core::SsrState s;
  s.x = static_cast<std::uint32_t>(*x);
  s.rts = (flags & 2) != 0;
  s.tra = (flags & 1) != 0;
  return s;
}

Bytes encode_state(const dijkstra::KStateLocal& state) {
  Bytes out;
  put_varint(out, state.x);
  return out;
}

std::optional<dijkstra::KStateLocal> decode_kstate(ByteView payload) {
  std::size_t offset = 0;
  const auto x = get_varint(payload, offset);
  if (!x || *x > UINT32_MAX || offset != payload.size()) return std::nullopt;
  return dijkstra::KStateLocal{static_cast<std::uint32_t>(*x)};
}

Bytes encode_state(const dijkstra::DualLocal& state) {
  Bytes out;
  put_varint(out, state.a);
  put_varint(out, state.b);
  return out;
}

std::optional<dijkstra::DualLocal> decode_dual(ByteView payload) {
  std::size_t offset = 0;
  const auto a = get_varint(payload, offset);
  if (!a || *a > UINT32_MAX) return std::nullopt;
  const auto b = get_varint(payload, offset);
  if (!b || *b > UINT32_MAX || offset != payload.size()) return std::nullopt;
  return dijkstra::DualLocal{static_cast<std::uint32_t>(*a),
                             static_cast<std::uint32_t>(*b)};
}

}  // namespace ssr::wire
