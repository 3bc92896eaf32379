// Message-passing execution of a RingProtocol via the cached sensornet
// transform (CST, paper Algorithm 4, after Herman 2003): the ring front of
// the sharded PDES engine in msgpass/pdes.hpp, which holds the network
// model (one message per directed link, newest-state pending slot, loss,
// duplication, fault plans), the event handlers and the determinism
// contract. A node fires its rules with stab::fire, the node step every
// message-passing host shares (stabilizing/cst_node.hpp).
//
// The ring needs no adjacency arrays: node i's two outgoing links are
// 2i (to its predecessor) and 2i + 1 (to its successor), its caches of
// those neighbours sit at the same indices, and a frame sent on link
// 2i + d lands in the receiver's cache 2j + (1 - d). The ring is cut into
// NetworkParams::workers contiguous arcs.
//
// Token accounting is the heart of the model-gap experiments (Figs. 11-13,
// Theorem 3): a node holds a token according to the protocol's token
// predicate evaluated on its *local view* (own state + caches), because
// that is the information an implementation would use to decide whether it
// may be active. The simulation integrates, over simulated time, how long
// the system spends with zero / one / two token holders.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "msgpass/pdes.hpp"
#include "stabilizing/cst_node.hpp"
#include "util/assert.hpp"

namespace ssr::msgpass {

/// CST execution of a RingProtocol over the event-driven network.
template <stab::RingProtocol P>
class CstSimulation
    : public pdes::Engine<CstSimulation<P>, typename P::State> {
  using Base = pdes::Engine<CstSimulation<P>, typename P::State>;
  friend Base;

 public:
  using State = typename P::State;
  using Config = std::vector<State>;
  /// Token predicate on a node's local view: (i, self, pred_view,
  /// succ_view) -> holds a token.
  using TokenFn =
      std::function<bool(std::size_t, const State&, const State&, const State&)>;

  CstSimulation(P protocol, Config initial, TokenFn token, NetworkParams params)
      : Base(std::move(initial), std::move(params)),
        protocol_(std::move(protocol)),
        token_(std::move(token)) {
    SSR_REQUIRE(this->size() == protocol_.size(),
                "configuration size must equal ring size");
    SSR_REQUIRE(this->size() >= 2, "ring needs at least two processes");
    this->start(2 * this->size());
  }

  const P& protocol() const { return protocol_; }

  /// True state of node i (omniscient view).
  const State& node_state(std::size_t i) const { return this->states_.at(i); }

  /// Node i's cached view of its predecessor / successor.
  const State& cache_pred(std::size_t i) const { return this->cache_.at(2 * i); }
  const State& cache_succ(std::size_t i) const {
    return this->cache_.at(2 * i + 1);
  }

  Config global_config() const { return this->states_; }

  /// Per-node token holding, each node judging from its local view.
  std::vector<bool> token_view() const { return this->holders_; }

 private:
  static std::size_t first_link(std::size_t i) { return 2 * i; }

  std::size_t link_dest(std::size_t e) const {
    const std::size_t i = e >> 1;
    if ((e & 1) != 0) return i + 1 == this->size() ? 0 : i + 1;
    return i == 0 ? this->size() - 1 : i - 1;
  }

  std::size_t link_reverse(std::size_t e) const {
    return 2 * link_dest(e) + ((e & 1) ^ 1);
  }

  bool enabled(std::size_t i) const {
    return protocol_.enabled_rule(i, this->states_[i], this->cache_[2 * i],
                                  this->cache_[2 * i + 1]) != stab::kDisabled;
  }

  bool fire(std::size_t i) {
    return stab::fire(protocol_, i, this->states_[i], this->cache_[2 * i],
                      this->cache_[2 * i + 1]);
  }

  bool holds(std::size_t i) const {
    return token_(i, this->states_[i], this->cache_[2 * i],
                  this->cache_[2 * i + 1]);
  }

  P protocol_;
  TokenFn token_;
};

}  // namespace ssr::msgpass
