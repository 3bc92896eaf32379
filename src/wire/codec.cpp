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

void encode_frame_v2_into(Bytes& out, std::uint64_t ring_id,
                          std::uint64_t sender, ByteView payload) {
  const std::size_t start = out.size();
  out.push_back(kMagic);
  out.push_back(kVersion2);
  put_varint(out, ring_id);
  put_varint(out, sender);
  put_varint(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint32_t crc =
      crc32(ByteView(out.data() + start, out.size() - start));
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
}

std::optional<FrameView> decode_frame_view(ByteView data, DecodeError* error) {
  auto fail = [&](DecodeError e) -> std::optional<FrameView> {
    if (error != nullptr) *error = e;
    return std::nullopt;
  };
  if (error != nullptr) *error = DecodeError::kNone;
  if (data.size() < 2 + 1 + 1 + 4) return fail(DecodeError::kTruncated);
  if (data[0] != kMagic) return fail(DecodeError::kBadMagic);
  if (data[1] != kVersion2) return fail(DecodeError::kBadVersion);
  std::size_t offset = 2;
  const auto ring = get_varint(data, offset);
  if (!ring) return fail(DecodeError::kTruncated);
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
  return FrameView{*ring, *sender, data.subspan(offset, *length)};
}

std::optional<FrameV2> decode_frame_any(ByteView data, DecodeError* error) {
  const auto view = decode_frame_view(data, error);
  if (!view) return std::nullopt;
  return FrameV2{view->ring_id, view->sender,
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

void put_state(Bytes& out, const core::SsrState& state) {
  put_varint(out, state.x);
  out.push_back(static_cast<std::uint8_t>((state.rts ? 2 : 0) |
                                          (state.tra ? 1 : 0)));
}

void put_state(Bytes& out, const dijkstra::KStateLocal& state) {
  put_varint(out, state.x);
}

void put_state(Bytes& out, const dijkstra::DualLocal& state) {
  put_varint(out, state.a);
  put_varint(out, state.b);
}

namespace {

/// Reads a varint that fits 32 bits at @p offset, advancing it.
std::optional<std::uint32_t> get_u32(ByteView data, std::size_t& offset) {
  const auto v = get_varint(data, offset);
  if (!v || *v > UINT32_MAX) return std::nullopt;
  return static_cast<std::uint32_t>(*v);
}

}  // namespace

template <>
std::optional<core::SsrState> decode_state(ByteView payload) {
  std::size_t offset = 0;
  const auto x = get_u32(payload, offset);
  if (!x || offset + 1 != payload.size()) return std::nullopt;
  const std::uint8_t flags = payload[offset];
  if (flags > 3) return std::nullopt;
  return core::SsrState{*x, (flags & 2) != 0, (flags & 1) != 0};
}

template <>
std::optional<dijkstra::KStateLocal> decode_state(ByteView payload) {
  std::size_t offset = 0;
  const auto x = get_u32(payload, offset);
  if (!x || offset != payload.size()) return std::nullopt;
  return dijkstra::KStateLocal{*x};
}

template <>
std::optional<dijkstra::DualLocal> decode_state(ByteView payload) {
  std::size_t offset = 0;
  const auto a = get_u32(payload, offset);
  if (!a) return std::nullopt;
  const auto b = get_u32(payload, offset);
  if (!b || offset != payload.size()) return std::nullopt;
  return dijkstra::DualLocal{*a, *b};
}

}  // namespace ssr::wire
