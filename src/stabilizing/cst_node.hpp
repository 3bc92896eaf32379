// The node step of the cached sensornet transform (CST, paper Algorithm 4,
// after Herman 2003), written once for every host that runs a ring
// protocol by message passing: the CST simulator (msgpass::CstSimulation),
// the multi-ring reactor (runtime::RingTable) and the threaded runtime
// (runtime::ThreadedRing).
//
// A node sees its own state and a cache of each neighbour's state, which
// its host refreshes from received messages. On that local view it fires
// at most one enabled rule, the highest-priority one, and judges whether
// it holds a token with the protocol's holds_token(i, self, pred, succ).
// What the hosts do differently — how a link carries states, when a rule
// runs, when a node rebroadcasts and when it refreshes — belongs to the
// host and is listed in docs/model_gap.md.
#pragma once

#include <concepts>
#include <cstddef>

#include "stabilizing/protocol.hpp"

namespace ssr::stab {

/// A ring protocol whose token predicate reads the local view its rules
/// read: holds_token(i, self, pred, succ).
// clang-format off
template <typename P>
concept TokenRingProtocol = RingProtocol<P> &&
    requires(const P p, std::size_t i, const typename P::State& s) {
  { p.holds_token(i, s, s, s) } -> std::convertible_to<bool>;
};
// clang-format on

/// Fires at most one enabled rule of node @p i on its local view: @p self
/// becomes the rule's next state. Returns false, and leaves @p self as it
/// was, when no rule is enabled.
template <RingProtocol P>
bool fire(const P& protocol, std::size_t i, typename P::State& self,
          const typename P::State& pred, const typename P::State& succ) {
  const int rule = protocol.enabled_rule(i, self, pred, succ);
  if (rule == kDisabled) return false;
  self = protocol.apply(i, rule, self, pred, succ);
  return true;
}

}  // namespace ssr::stab
