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
//   * one framed message format, keyed by ring for multiplexed transports:
//       magic(0xA5) | version(2) | ring-id varint | sender varint |
//       payload-length varint | payload bytes | crc32 (little-endian,
//       over everything before it)
//     decode_frame_view() is the one frame parser: it does not copy, its
//     payload points into the input. decode_frame_any() copies the payload
//     out. Version 1, which had no ring-id, is no longer spoken: its header
//     fails with kBadVersion;
//   * per-protocol state payload codecs (SSRmin, K-state, dual K-state):
//     put_state() appends a state, decode_state<S>() parses one.
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

/// A decoded frame with its payload copied out.
struct FrameV2 {
  std::uint64_t ring_id = 0;
  std::uint64_t sender = 0;
  Bytes payload;
};

/// A decoded frame whose payload points into the bytes it was decoded
/// from, and is valid only as long as they are.
struct FrameView {
  std::uint64_t ring_id = 0;
  std::uint64_t sender = 0;
  ByteView payload;
};

inline constexpr std::uint8_t kMagic = 0xA5;
inline constexpr std::uint8_t kVersion2 = 2;

/// Appends a complete frame to @p out. The append form is the reactor's
/// hot path: it encodes into a reused buffer, so a frame allocates
/// nothing.
void encode_frame_v2_into(Bytes& out, std::uint64_t ring_id,
                          std::uint64_t sender, ByteView payload);

/// Parses a frame without copying. A version byte other than kVersion2
/// fails with kBadVersion, before the rest of the frame is read.
std::optional<FrameView> decode_frame_view(ByteView data,
                                           DecodeError* error = nullptr);

/// decode_frame_view() with the payload copied out.
std::optional<FrameV2> decode_frame_any(ByteView data,
                                        DecodeError* error = nullptr);

/// Flips @p flips random bits of @p frame in place (fault injection).
void corrupt_bits(Bytes& frame, Rng& rng, std::size_t flips = 1);

// --- per-protocol payload codecs ------------------------------------------
//
// SSRmin: varint x, then one flag byte (bit0 = tra, bit1 = rts).
// K-state: varint x.
// Dual K-state: varint a, varint b.
//
// decode_state<S>() rejects truncation, trailing bytes, a value beyond
// 32 bits and an SSRmin flag byte above 3. Whether a value lies below the
// ring's modulus is the receiver's check.

void put_state(Bytes& out, const core::SsrState& state);
void put_state(Bytes& out, const dijkstra::KStateLocal& state);
void put_state(Bytes& out, const dijkstra::DualLocal& state);

template <typename S>
std::optional<S> decode_state(ByteView payload);
template <>
std::optional<core::SsrState> decode_state(ByteView payload);
template <>
std::optional<dijkstra::KStateLocal> decode_state(ByteView payload);
template <>
std::optional<dijkstra::DualLocal> decode_state(ByteView payload);

}  // namespace ssr::wire
