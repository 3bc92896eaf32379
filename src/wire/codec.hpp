// Wire format for state messages — the "boilerplate of real messaging".
//
// The paper's fault model (§2.2) includes message corruption, loss and
// duplication. Self-stabilization handles loss and duplication natively
// (CST rebroadcasts full states); corruption is handled the way deployed
// systems handle it: an end-to-end checksum turns a corrupted frame into a
// *dropped* frame, which Lemma 9's loss analysis already covers. This
// module provides:
//
//   * LEB128-style varint encoding for integers,
//   * CRC-32 (IEEE 802.3 polynomial, table-driven),
//   * a framed message format:
//       magic(0xA5) | version(1) | sender varint | payload-length varint |
//       payload bytes | crc32 (little-endian, over everything before it)
//   * a v2 framed format for multiplexed transports, identical except for a
//     ring-id varint between the version byte and the sender:
//       magic(0xA5) | version(2) | ring-id varint | sender varint |
//       payload-length varint | payload bytes | crc32
//     decode_frame_view() parses both versions (a v1 frame reports ring 0)
//     without copying: its payload points into the input. It is the one
//     frame parser; decode_frame() and decode_frame_any() copy its payload
//     out;
//   * per-protocol state payload codecs (SSRmin, K-state, dual K-state).
//
// The decoders never throw on malformed input: every parse failure —
// truncation, bad magic, bad version, length mismatch, checksum mismatch —
// returns std::nullopt with a reason, because "garbage from the network"
// is an expected input, not a programming error.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/state.hpp"
#include "dijkstra/dual.hpp"
#include "dijkstra/kstate.hpp"
#include "util/rng.hpp"

namespace ssr::wire {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Appends a LEB128 varint.
void put_varint(Bytes& out, std::uint64_t value);

/// Reads a LEB128 varint at @p offset, advancing it. Returns nullopt on
/// truncation or on encodings longer than 10 bytes.
std::optional<std::uint64_t> get_varint(ByteView data, std::size_t& offset);

/// CRC-32 (IEEE) of the byte range.
std::uint32_t crc32(ByteView data);

/// Why a frame failed to decode (for observability counters).
enum class DecodeError {
  kNone,
  kTruncated,
  kBadMagic,
  kBadVersion,
  kBadLength,
  kBadChecksum,
};

std::string to_string(DecodeError error);

/// A decoded state frame.
struct Frame {
  std::uint64_t sender = 0;
  Bytes payload;
};

/// A decoded frame from either wire version. A v1 frame reports version = 1
/// and ring_id = 0 (single-ring runtimes predate the ring-id field).
struct FrameV2 {
  std::uint8_t version = 2;
  std::uint64_t ring_id = 0;
  std::uint64_t sender = 0;
  Bytes payload;
};

/// A decoded frame of either version whose payload points into the bytes
/// it was decoded from, and is valid only as long as they are.
struct FrameView {
  std::uint8_t version = 2;
  std::uint64_t ring_id = 0;
  std::uint64_t sender = 0;
  ByteView payload;
};

inline constexpr std::uint8_t kMagic = 0xA5;
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::uint8_t kVersion2 = 2;

/// Builds a complete frame around @p payload.
Bytes encode_frame(std::uint64_t sender, ByteView payload);

/// Parses a v1 frame; on failure returns nullopt and sets @p error (if
/// given). A v2 frame fails with kBadVersion.
std::optional<Frame> decode_frame(ByteView data, DecodeError* error = nullptr);

/// Appends a complete v2 frame (ring-id keyed) to @p out. The append form
/// is the reactor's hot path: it encodes into a reused buffer, so a frame
/// allocates nothing.
void encode_frame_v2_into(Bytes& out, std::uint64_t ring_id,
                          std::uint64_t sender, ByteView payload);

/// Builds a complete v2 frame around @p payload.
Bytes encode_frame_v2(std::uint64_t ring_id, std::uint64_t sender,
                      ByteView payload);

/// Parses a frame of version 1 up to @p max_version without copying: v2
/// yields its ring-id; a v1 frame reports ring_id = 0 with version = 1
/// (callers that care can dispatch on .version). Any other version byte
/// fails with kBadVersion, before the rest of the frame is read.
std::optional<FrameView> decode_frame_view(ByteView data,
                                           DecodeError* error = nullptr,
                                           std::uint8_t max_version = kVersion2);

/// decode_frame_view() of either version, with the payload copied out.
std::optional<FrameV2> decode_frame_any(ByteView data,
                                        DecodeError* error = nullptr);

/// Flips @p flips random bits of @p frame in place (fault injection).
void corrupt_bits(Bytes& frame, Rng& rng, std::size_t flips = 1);

// --- per-protocol payload codecs ------------------------------------------

/// SSRmin local state: varint x, then one flag byte (bit0 = tra,
/// bit1 = rts).
Bytes encode_state(const core::SsrState& state);
std::optional<core::SsrState> decode_ssr_state(ByteView payload);

/// K-state local state: varint x.
Bytes encode_state(const dijkstra::KStateLocal& state);
std::optional<dijkstra::KStateLocal> decode_kstate(ByteView payload);

/// Dual K-state local state: varint a, varint b.
Bytes encode_state(const dijkstra::DualLocal& state);
std::optional<dijkstra::DualLocal> decode_dual(ByteView payload);

/// Convenience: frame a protocol state directly.
template <typename State>
Bytes encode_state_frame(std::uint64_t sender, const State& state) {
  const Bytes payload = encode_state(state);
  return encode_frame(sender, payload);
}

}  // namespace ssr::wire
