// Dense per-ring state for the multi-ring reactor.
//
// The single-ring runtimes spend a thread per node (ThreadedRing) or a
// whole simulation object per ring. A RingTable instead packs the state of
// every hosted ring — protocol kind, per-node local states, per-node
// neighbor caches, holder bits, wire counters, fault bookkeeping and an
// independent RNG stream — into flat arrays indexed by (ring, node), so
// 100k rings fit in tens of MiB and the reactor's hot path touches memory
// contiguously instead of chasing one heap object per ring.
//
// Protocols are mixed at runtime: each ring is SSRmin, Dijkstra K-state or
// dual K-state, dispatched with a switch over a universal NodeState
// (uint32 a, uint32 b, uint8 flags) that covers all three local-state
// layouts. The protocol objects themselves (SsrMinRing &c.) are shared —
// they are pure (n, K) pairs.
//
// The message-passing semantics are Algorithm 4's (CST): a node owns its
// local state plus cached neighbor states; a received frame updates the
// cache and may enable a rule; a state change triggers a broadcast to both
// neighbors; token holding is judged from the node's own (state, caches)
// view. The table is transport-agnostic — the reactor decides how frames
// travel (virtual clock or real UDP sockets).
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/legitimacy.hpp"
#include "core/ssrmin.hpp"
#include "core/state.hpp"
#include "dijkstra/dual.hpp"
#include "dijkstra/kstate.hpp"
#include "stabilizing/protocol.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"

namespace ssr::runtime {

enum class RingProtocolKind : std::uint8_t {
  kSsrMin = 0,
  kKState = 1,
  kDual = 2,
};

inline const char* to_string(RingProtocolKind kind) {
  switch (kind) {
    case RingProtocolKind::kSsrMin:
      return "ssrmin";
    case RingProtocolKind::kKState:
      return "kstate";
    case RingProtocolKind::kDual:
      return "dual";
  }
  return "unknown";
}

/// Universal per-node local state covering all three protocols:
///   SSRmin: a = x, flags bit0 = tra, bit1 = rts
///   K-state: a = x
///   dual:    a, b
struct NodeState {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint8_t flags = 0;
};

inline NodeState pack_state(const core::SsrState& s) {
  return NodeState{s.x, 0,
                   static_cast<std::uint8_t>((s.rts ? 2 : 0) | (s.tra ? 1 : 0))};
}
inline NodeState pack_state(const dijkstra::KStateLocal& s) {
  return NodeState{s.x, 0, 0};
}
inline NodeState pack_state(const dijkstra::DualLocal& s) {
  return NodeState{s.a, s.b, 0};
}
inline core::SsrState unpack_ssr(const NodeState& s) {
  return core::SsrState{s.a, (s.flags & 2) != 0, (s.flags & 1) != 0};
}
inline dijkstra::KStateLocal unpack_kstate(const NodeState& s) {
  return dijkstra::KStateLocal{s.a};
}
inline dijkstra::DualLocal unpack_dual(const NodeState& s) {
  return dijkstra::DualLocal{s.a, s.b};
}

/// Per-ring wire/rule counters (plain integers — each ring is owned by
/// exactly one shard).
struct RingCounters {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t frames_reordered = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t rule_executions = 0;
  std::uint64_t crash_restarts = 0;
  std::uint64_t refresh_broadcasts = 0;
  std::uint64_t handovers = 0;
};

/// How a hosted ring starts: a seeded arbitrary configuration (the
/// self-stabilization story) or the canonical legitimate one.
enum class RingStart : std::uint8_t { kRandom, kLegitimate };

class RingTable {
 public:
  /// Ring geometry is uniform (same n and K for every ring; 3 <= n <= 64
  /// so holder sets fit a uint64 mask); protocols may vary per ring.
  RingTable(std::size_t num_rings, std::size_t nodes, std::uint32_t modulus,
            std::vector<RingProtocolKind> protocols, RingStart start,
            std::uint64_t seed)
      : num_rings_(num_rings),
        n_(nodes),
        ssr_(nodes, modulus),
        kstate_(nodes, modulus),
        dual_(nodes, modulus),
        protocols_(std::move(protocols)),
        ssr_scratch_(nodes),
        kstate_scratch_(nodes),
        dual_scratch_(nodes) {
    SSR_REQUIRE(num_rings_ >= 1, "need at least one ring");
    SSR_REQUIRE(n_ >= 3 && n_ <= 64,
                "multi-ring nodes must be in [3, 64] (holder bitmask)");
    SSR_REQUIRE(protocols_.size() == num_rings_,
                "one protocol kind per ring");
    states_.resize(num_rings_ * n_);
    cache_pred_.resize(num_rings_ * n_);
    cache_succ_.resize(num_rings_ * n_);
    holder_mask_.resize(num_rings_, 0);
    last_activity_us_.resize(num_rings_, 0);
    last_handover_us_.assign(num_rings_,
                             std::numeric_limits<std::uint64_t>::max());
    crash_fired_.resize(num_rings_, 0);
    counters_.resize(num_rings_);
    rngs_.reserve(num_rings_);
    std::uint64_t stream = seed;
    for (std::size_t r = 0; r < num_rings_; ++r) {
      rngs_.emplace_back(splitmix64_next(stream));
      init_ring(r, start);
    }
  }

  std::size_t num_rings() const { return num_rings_; }
  std::size_t nodes_per_ring() const { return n_; }
  RingProtocolKind protocol(std::size_t ring) const {
    return protocols_[ring];
  }
  Rng& rng(std::size_t ring) { return rngs_[ring]; }
  RingCounters& counters(std::size_t ring) { return counters_[ring]; }
  const RingCounters& counters(std::size_t ring) const {
    return counters_[ring];
  }
  std::uint64_t holder_mask(std::size_t ring) const {
    return holder_mask_[ring];
  }
  std::uint64_t last_activity_us(std::size_t ring) const {
    return last_activity_us_[ring];
  }
  /// Virtual/wall time of the previous holder *gain* on this ring, or
  /// max-uint64 before the first one (used for handover intervals).
  std::uint64_t last_handover_us(std::size_t ring) const {
    return last_handover_us_[ring];
  }
  std::uint32_t& crash_fired(std::size_t ring) { return crash_fired_[ring]; }

  const NodeState& state(std::size_t ring, std::size_t node) const {
    return states_[ring * n_ + node];
  }

  /// Encodes node's current state as a wire payload with the destination
  /// node prepended as a varint (the v2 frame has a ring-id but no
  /// destination; the reactor's sockets are per-shard, not per-node).
  void encode_payload(std::size_t ring, std::size_t node, std::size_t dest,
                      wire::Bytes& out) const {
    wire::put_varint(out, dest);
    const NodeState& s = states_[ring * n_ + node];
    switch (protocols_[ring]) {
      case RingProtocolKind::kSsrMin: {
        const core::SsrState state = unpack_ssr(s);
        wire::put_varint(out, state.x);
        out.push_back(static_cast<std::uint8_t>((state.rts ? 2 : 0) |
                                                (state.tra ? 1 : 0)));
        break;
      }
      case RingProtocolKind::kKState:
        wire::put_varint(out, s.a);
        break;
      case RingProtocolKind::kDual:
        wire::put_varint(out, s.a);
        wire::put_varint(out, s.b);
        break;
    }
  }

  /// Parses the state portion of a payload (after the dest varint) for
  /// @p ring's protocol, validating against the modulus. Returns false on
  /// any malformation.
  bool decode_state(std::size_t ring, wire::ByteView payload,
                    std::size_t offset, NodeState& out) const {
    switch (protocols_[ring]) {
      case RingProtocolKind::kSsrMin: {
        const auto state = wire::decode_ssr_state(
            payload.subspan(offset));
        if (!state || state->x >= ssr_.modulus()) return false;
        out = pack_state(*state);
        return true;
      }
      case RingProtocolKind::kKState: {
        const auto state = wire::decode_kstate(payload.subspan(offset));
        if (!state || state->x >= kstate_.modulus()) return false;
        out = pack_state(*state);
        return true;
      }
      case RingProtocolKind::kDual: {
        const auto state = wire::decode_dual(payload.subspan(offset));
        if (!state || state->a >= dual_.modulus() ||
            state->b >= dual_.modulus()) {
          return false;
        }
        out = pack_state(*state);
        return true;
      }
    }
    return false;
  }

  struct DeliverResult {
    bool accepted = false;       ///< sender was a neighbor; cache updated
    bool state_changed = false;  ///< a rule fired (caller must rebroadcast)
    bool holder_changed = false;  ///< dest's holder bit flipped
  };

  /// Ingests a neighbor state at @p dest (from ring-local @p sender, which
  /// must be dest's pred or succ — anything else is the caller's reject
  /// path), applies at most one enabled rule, and updates holder/handover
  /// accounting at @p now_us. @p on_handover receives the inter-arrival
  /// interval (us) when dest gains a token and a previous gain exists.
  template <typename OnHandover>
  DeliverResult deliver(std::size_t ring, std::size_t dest,
                        std::size_t sender, const NodeState& neighbor_state,
                        std::uint64_t now_us, OnHandover&& on_handover) {
    DeliverResult result;
    const std::size_t base = ring * n_;
    const std::size_t pred = stab::pred_index(dest, n_);
    const std::size_t succ = stab::succ_index(dest, n_);
    if (sender == pred) {
      cache_pred_[base + dest] = neighbor_state;
    } else if (sender == succ) {
      cache_succ_[base + dest] = neighbor_state;
    } else {
      return result;  // caller counts the rejection
    }
    result.accepted = true;
    last_activity_us_[ring] = now_us;
    // The token can arrive with the frame: a cache update alone may turn
    // dest into a holder. Observe the gain BEFORE applying the rule —
    // Dijkstra-style protocols consume the token in the very rule the
    // frame enables, so checking only afterwards would miss every
    // handover (SSRmin's holding predicate is sticky across exchanges;
    // K-state's is not).
    result.holder_changed = update_holder_with(ring, dest, now_us,
                                               on_handover);
    result.state_changed = step_node(ring, dest);
    if (result.state_changed) {
      result.holder_changed |=
          update_holder_with(ring, dest, now_us, on_handover);
    }
    return result;
  }

  /// Applies at most one enabled rule at @p node from its current caches.
  bool step_node(std::size_t ring, std::size_t node) {
    const std::size_t base = ring * n_;
    NodeState& self = states_[base + node];
    const NodeState& pred = cache_pred_[base + node];
    const NodeState& succ = cache_succ_[base + node];
    switch (protocols_[ring]) {
      case RingProtocolKind::kSsrMin: {
        core::SsrState s = unpack_ssr(self);
        const core::SsrState p = unpack_ssr(pred);
        const core::SsrState u = unpack_ssr(succ);
        const int rule = ssr_.enabled_rule(node, s, p, u);
        if (rule == stab::kDisabled) return false;
        self = pack_state(ssr_.apply(node, rule, s, p, u));
        break;
      }
      case RingProtocolKind::kKState: {
        dijkstra::KStateLocal s = unpack_kstate(self);
        const dijkstra::KStateLocal p = unpack_kstate(pred);
        const dijkstra::KStateLocal u = unpack_kstate(succ);
        const int rule = kstate_.enabled_rule(node, s, p, u);
        if (rule == stab::kDisabled) return false;
        self = pack_state(kstate_.apply(node, rule, s, p, u));
        break;
      }
      case RingProtocolKind::kDual: {
        dijkstra::DualLocal s = unpack_dual(self);
        const dijkstra::DualLocal p = unpack_dual(pred);
        const dijkstra::DualLocal u = unpack_dual(succ);
        const int rule = dual_.enabled_rule(node, s, p, u);
        if (rule == stab::kDisabled) return false;
        self = pack_state(dual_.apply(node, rule, s, p, u));
        break;
      }
    }
    ++counters_[ring].rule_executions;
    return true;
  }

  /// Recomputes @p node's holder bit from its own view; a 0->1 transition
  /// is a handover (token arrival) and records the inter-arrival interval
  /// via @p on_handover(interval_us) when a previous arrival exists.
  /// Returns true when the bit flipped.
  template <typename OnHandover>
  bool update_holder_with(std::size_t ring, std::size_t node,
                          std::uint64_t now_us, OnHandover&& on_handover) {
    const bool h = node_holds(ring, node);
    const std::uint64_t bit = std::uint64_t{1} << node;
    const bool had = (holder_mask_[ring] & bit) != 0;
    if (h == had) return false;
    if (h) {
      holder_mask_[ring] |= bit;
      ++counters_[ring].handovers;
      if (last_handover_us_[ring] !=
          std::numeric_limits<std::uint64_t>::max()) {
        on_handover(now_us - last_handover_us_[ring]);
      }
      last_handover_us_[ring] = now_us;
    } else {
      holder_mask_[ring] &= ~bit;
    }
    return true;
  }

  bool update_holder(std::size_t ring, std::size_t node,
                     std::uint64_t now_us) {
    return update_holder_with(ring, node, now_us, [](std::uint64_t) {});
  }

  /// Token holding from the node's own (state, caches) view — what a
  /// deployed node would compute.
  bool node_holds(std::size_t ring, std::size_t node) const {
    const std::size_t base = ring * n_;
    const NodeState& self = states_[base + node];
    const NodeState& pred = cache_pred_[base + node];
    const NodeState& succ = cache_succ_[base + node];
    switch (protocols_[ring]) {
      case RingProtocolKind::kSsrMin:
        return ssr_.holds_token(node, unpack_ssr(self), unpack_ssr(pred),
                                unpack_ssr(succ));
      case RingProtocolKind::kKState:
        return kstate_.holds_token(node, unpack_kstate(self),
                                   unpack_kstate(pred));
      case RingProtocolKind::kDual:
        return dual_.holds_token(node, unpack_dual(self),
                                 unpack_dual(pred));
    }
    return false;
  }

  /// Crash-restart with state reset: wipes @p node's state and caches.
  /// The caller re-derives the holder bit (update_holder) so the
  /// transition feeds its telemetry hooks.
  void crash_node(std::size_t ring, std::size_t node) {
    const std::size_t base = ring * n_;
    states_[base + node] = NodeState{};
    cache_pred_[base + node] = NodeState{};
    cache_succ_[base + node] = NodeState{};
    ++counters_[ring].crash_restarts;
  }

  /// Ground-truth legitimacy of the ring's *actual* states (ignoring the
  /// possibly-stale caches) — the re-stabilization check in tests. The
  /// configuration is unpacked into a scratch sized once, so a call
  /// allocates nothing; calls must not run concurrently.
  bool is_legitimate(std::size_t ring) const {
    const std::size_t base = ring * n_;
    switch (protocols_[ring]) {
      case RingProtocolKind::kSsrMin:
        for (std::size_t i = 0; i < n_; ++i) {
          ssr_scratch_[i] = unpack_ssr(states_[base + i]);
        }
        return core::is_legitimate(ssr_, ssr_scratch_);
      case RingProtocolKind::kKState:
        for (std::size_t i = 0; i < n_; ++i) {
          kstate_scratch_[i] = unpack_kstate(states_[base + i]);
        }
        return dijkstra::is_legitimate(kstate_, kstate_scratch_);
      case RingProtocolKind::kDual:
        for (std::size_t i = 0; i < n_; ++i) {
          dual_scratch_[i] = unpack_dual(states_[base + i]);
        }
        return dijkstra::is_legitimate(dual_, dual_scratch_);
    }
    return false;
  }

  /// Re-seeds caches from the true neighbor states and recomputes every
  /// holder bit — used at t = 0 (all caches start coherent, like the
  /// single-ring runtimes' initial configuration).
  void reset_caches(std::size_t ring) {
    const std::size_t base = ring * n_;
    for (std::size_t i = 0; i < n_; ++i) {
      cache_pred_[base + i] = states_[base + stab::pred_index(i, n_)];
      cache_succ_[base + i] = states_[base + stab::succ_index(i, n_)];
    }
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (node_holds(ring, i)) mask |= std::uint64_t{1} << i;
    }
    holder_mask_[ring] = mask;
  }

  /// Holder set as a bool vector (for Telemetry::observe).
  void holders(std::size_t ring, std::vector<bool>& out) const {
    out.assign(n_, false);
    const std::uint64_t mask = holder_mask_[ring];
    for (std::size_t i = 0; i < n_; ++i) {
      out[i] = (mask >> i) & 1;
    }
  }

 private:
  void init_ring(std::size_t r, RingStart start) {
    const std::size_t base = r * n_;
    Rng& rng = rngs_[r];
    switch (protocols_[r]) {
      case RingProtocolKind::kSsrMin: {
        const core::SsrConfig config =
            start == RingStart::kRandom
                ? core::random_config(ssr_, rng)
                : core::canonical_legitimate(ssr_, 0);
        for (std::size_t i = 0; i < n_; ++i) {
          states_[base + i] = pack_state(config[i]);
        }
        break;
      }
      case RingProtocolKind::kKState: {
        dijkstra::KStateConfig config(n_);
        if (start == RingStart::kRandom) {
          config = dijkstra::random_config(kstate_, rng);
        }
        for (std::size_t i = 0; i < n_; ++i) {
          states_[base + i] = pack_state(config[i]);
        }
        break;
      }
      case RingProtocolKind::kDual: {
        dijkstra::DualConfig config(n_);
        if (start == RingStart::kRandom) {
          config = dijkstra::random_config(dual_, rng);
        }
        for (std::size_t i = 0; i < n_; ++i) {
          states_[base + i] = pack_state(config[i]);
        }
        break;
      }
    }
    reset_caches(r);
  }

  std::size_t num_rings_;
  std::size_t n_;
  core::SsrMinRing ssr_;
  dijkstra::KStateRing kstate_;
  dijkstra::DualKStateRing dual_;
  std::vector<RingProtocolKind> protocols_;
  // is_legitimate's configurations.
  mutable core::SsrConfig ssr_scratch_;
  mutable dijkstra::KStateConfig kstate_scratch_;
  mutable dijkstra::DualConfig dual_scratch_;
  std::vector<NodeState> states_;
  std::vector<NodeState> cache_pred_;
  std::vector<NodeState> cache_succ_;
  std::vector<std::uint64_t> holder_mask_;
  std::vector<std::uint64_t> last_activity_us_;
  std::vector<std::uint64_t> last_handover_us_;
  std::vector<std::uint32_t> crash_fired_;
  std::vector<RingCounters> counters_;
  std::vector<Rng> rngs_;
};

}  // namespace ssr::runtime
