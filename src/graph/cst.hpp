// Event-driven CST execution for general-graph protocols — the
// message-passing counterpart of graph::GraphEngine. It is the CSR front
// of the sharded PDES engine in msgpass/pdes.hpp, so it shares
// msgpass::CstSimulation's network parameters, link discipline, loss,
// duplication and fault-plan model, coverage accounting and determinism
// contract, with one cache and one pair of directed links per graph edge.
//
// Neighbour lists are flattened into CSR arrays: node i's k-th neighbour
// is nbr_[off_[i] + k], the directed link to it and i's cache of it share
// that index, and rev_ maps each link to the receiver's link back, which
// is also the receiver's cache slot of the sender. Nodes are partitioned
// into NetworkParams::workers contiguous id ranges; the global-window
// synchronization needs no per-channel clocks, because every cross-node
// event is a delivery at least delay_min away on any topology.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "graph/protocol.hpp"
#include "msgpass/pdes.hpp"
#include "util/assert.hpp"

namespace ssr::graph {

template <GraphProtocol P>
class GraphCstSimulation
    : public msgpass::pdes::Engine<GraphCstSimulation<P>, typename P::State> {
  using Base =
      msgpass::pdes::Engine<GraphCstSimulation<P>, typename P::State>;
  friend Base;

 public:
  using State = typename P::State;
  using Config = std::vector<State>;
  /// Activity predicate on a node's local view (e.g. "is in the MIS").
  using ActiveFn = std::function<bool(std::size_t, const State&,
                                      std::span<const State>)>;

  GraphCstSimulation(P protocol, Config initial, ActiveFn active,
                     msgpass::NetworkParams params)
      : Base(std::move(initial), std::move(params)),
        protocol_(std::move(protocol)),
        active_(std::move(active)) {
    const Topology& g = protocol_.topology();
    const std::size_t n = g.size();
    SSR_REQUIRE(this->size() == n, "configuration size mismatch");
    off_.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t degree = g.degree(i);
      msgpass::pdes::require_port_range(i, degree);
      off_[i + 1] = off_[i] + degree;
    }
    nbr_.reserve(off_[n]);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j : g.neighbors(i)) {
        nbr_.push_back(static_cast<std::uint32_t>(j));
      }
    }
    // Neighbour lists are sorted, so the links into j, met in ascending
    // sender order, are j's links back in list order: one counting pass
    // pairs every link with its reverse.
    rev_.assign(off_[n], 0);
    std::vector<std::uint32_t> back(n, 0);  // j's links paired so far
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t e = off_[i]; e < off_[i + 1]; ++e) {
        const std::size_t j = nbr_[e];
        const std::size_t f = off_[j] + back[j]++;
        SSR_REQUIRE(f < off_[j + 1] && nbr_[f] == i,
                    "topology is not symmetric");
        rev_[e] = static_cast<std::uint32_t>(f);
      }
    }
    this->start(off_[n]);
  }

  const Config& global_config() const { return this->states_; }

  std::size_t active_count() const { return this->holder_count(); }
  std::vector<bool> active_view() const { return this->holders_; }

 private:
  std::size_t first_link(std::size_t i) const { return off_[i]; }
  std::size_t link_dest(std::size_t e) const { return nbr_[e]; }
  std::size_t link_reverse(std::size_t e) const { return rev_[e]; }

  std::span<const State> caches_of(std::size_t i) const {
    return {this->cache_.data() + off_[i], off_[i + 1] - off_[i]};
  }

  bool enabled(std::size_t i) const {
    return protocol_.enabled_rule(i, this->states_[i], caches_of(i)) !=
           kDisabled;
  }

  bool fire(std::size_t i) {
    State& self = this->states_[i];
    const int rule = protocol_.enabled_rule(i, self, caches_of(i));
    if (rule == kDisabled) return false;
    self = protocol_.apply(i, rule, self, caches_of(i));
    return true;
  }

  bool holds(std::size_t i) const {
    return active_(i, this->states_[i], caches_of(i));
  }

  P protocol_;
  ActiveFn active_;
  std::vector<std::size_t> off_;     ///< CSR offsets, size n+1
  std::vector<std::uint32_t> nbr_;   ///< CSR neighbour ids
  std::vector<std::uint32_t> rev_;   ///< reverse link of each link
};

}  // namespace ssr::graph
