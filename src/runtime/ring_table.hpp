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
// dual K-state, stored as a universal NodeState (uint32 a, uint32 b, uint8
// flags) that covers all three local-state layouts. One switch, visit(),
// hands a ring's protocol object to a generic lambda, which unpacks the
// states into the protocol's own type. The protocol objects themselves
// (SsrMinRing &c.) are shared — they are pure (n, K) pairs.
//
// The message-passing semantics are Algorithm 4's (CST): a node owns its
// local state plus cached neighbor states; a received frame updates the
// cache and may enable a rule, which stab::fire runs; a state change
// triggers a broadcast to both neighbors; token holding is the protocol's
// holds_token on the node's own (state, caches) view. The table is
// transport-agnostic — the reactor decides how frames travel (virtual
// clock or real UDP sockets).
#pragma once

#include <cstdint>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/legitimacy.hpp"
#include "core/ssrmin.hpp"
#include "core/state.hpp"
#include "dijkstra/dual.hpp"
#include "dijkstra/kstate.hpp"
#include "stabilizing/cst_node.hpp"
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

/// Unpacks a packed state into the protocol's state type @p S.
template <typename S>
S unpack_state(const NodeState& s) {
  if constexpr (std::is_same_v<S, core::SsrState>) {
    return core::SsrState{s.a, (s.flags & 2) != 0, (s.flags & 1) != 0};
  } else if constexpr (std::is_same_v<S, dijkstra::KStateLocal>) {
    return dijkstra::KStateLocal{s.a};
  } else {
    static_assert(std::is_same_v<S, dijkstra::DualLocal>);
    return dijkstra::DualLocal{s.a, s.b};
  }
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
        scratch_(core::SsrConfig(nodes), dijkstra::KStateConfig(nodes),
                 dijkstra::DualConfig(nodes)) {
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
    visit(ring, [&](const auto& p) {
      wire::put_state(out, unpack_state<StateOf<decltype(p)>>(s));
    });
  }

  /// Parses the state portion of a payload (after the dest varint) for
  /// @p ring's protocol, validating against the modulus. Returns false on
  /// any malformation.
  bool decode_state(std::size_t ring, wire::ByteView payload,
                    std::size_t offset, NodeState& out) const {
    const bool parsed = visit(ring, [&](const auto& p) {
      const auto state =
          wire::decode_state<StateOf<decltype(p)>>(payload.subspan(offset));
      if (state) out = pack_state(*state);
      return state.has_value();
    });
    // Every protocol's values lie in [0, K), and b is 0 where unused.
    const std::uint32_t k = ssr_.modulus();
    return parsed && out.a < k && out.b < k;
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
    const std::size_t at = ring * n_ + node;
    const bool fired = visit(ring, [&](const auto& p) {
      using S = StateOf<decltype(p)>;
      S self = unpack_state<S>(states_[at]);
      if (!stab::fire(p, node, self, unpack_state<S>(cache_pred_[at]),
                      unpack_state<S>(cache_succ_[at]))) {
        return false;
      }
      states_[at] = pack_state(self);
      return true;
    });
    if (fired) ++counters_[ring].rule_executions;
    return fired;
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

  /// Token holding from the node's own (state, caches) view — what a
  /// deployed node would compute.
  bool node_holds(std::size_t ring, std::size_t node) const {
    const std::size_t at = ring * n_ + node;
    return visit(ring, [&](const auto& p) {
      using S = StateOf<decltype(p)>;
      return p.holds_token(node, unpack_state<S>(states_[at]),
                           unpack_state<S>(cache_pred_[at]),
                           unpack_state<S>(cache_succ_[at]));
    });
  }

  /// Crash-restart with state reset: wipes @p node's state and caches.
  /// The caller re-derives the holder bit (update_holder_with) so the
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
    return visit(ring, [&](const auto& p) {
      using S = StateOf<decltype(p)>;
      using core::is_legitimate, dijkstra::is_legitimate;
      auto& config = std::get<std::vector<S>>(scratch_);
      for (std::size_t i = 0; i < n_; ++i) {
        config[i] = unpack_state<S>(states_[base + i]);
      }
      return is_legitimate(p, config);
    });
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
  template <typename P>
  using StateOf = typename std::remove_cvref_t<P>::State;

  /// Calls @p f with @p ring's protocol object: the table's one protocol
  /// dispatch. @p f returns the same type for all three protocols.
  template <typename F>
  std::invoke_result_t<F&, const core::SsrMinRing&> visit(std::size_t ring,
                                                          F&& f) const {
    switch (protocols_[ring]) {
      case RingProtocolKind::kSsrMin:
        return f(ssr_);
      case RingProtocolKind::kKState:
        return f(kstate_);
      case RingProtocolKind::kDual:
        break;
    }
    return f(dual_);
  }

  /// A seeded arbitrary configuration, or the legitimate start: SSRmin's
  /// gamma_0 and all-zero counters for K-state and dual.
  void init_ring(std::size_t r, RingStart start) {
    visit(r, [&](const auto& p) {
      using S = StateOf<decltype(p)>;
      using core::random_config, dijkstra::random_config;
      std::vector<S> config(n_);
      if (start == RingStart::kRandom) {
        config = random_config(p, rngs_[r]);
      } else if constexpr (std::is_same_v<S, core::SsrState>) {
        config = core::canonical_legitimate(p, 0);
      }
      for (std::size_t i = 0; i < n_; ++i) {
        states_[r * n_ + i] = pack_state(config[i]);
      }
    });
    reset_caches(r);
  }

  std::size_t num_rings_;
  std::size_t n_;
  core::SsrMinRing ssr_;
  dijkstra::KStateRing kstate_;
  dijkstra::DualKStateRing dual_;
  std::vector<RingProtocolKind> protocols_;
  // is_legitimate's configurations, one per protocol.
  mutable std::tuple<core::SsrConfig, dijkstra::KStateConfig,
                     dijkstra::DualConfig>
      scratch_;
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
