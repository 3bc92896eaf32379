// Two independent Dijkstra K-state instances run concurrently on the same
// ring — the naive multi-token construction the paper rules out in Figure
// 12. In the state-reading model this keeps two tokens alive (each instance
// keeps exactly one), so it looks like a mutual-inclusion solution; the
// message-passing experiments show that both tokens can be "in flight"
// simultaneously, leaving an instant with no token-holding node. SSRmin's
// handshake exists precisely to prevent that.
#pragma once

#include <cstdint>
#include <vector>

#include "dijkstra/kstate.hpp"
#include "stabilizing/protocol.hpp"
#include "stabilizing/trace.hpp"
#include "util/rng.hpp"

namespace ssr::dijkstra {

/// Local state: one counter per instance.
struct DualLocal {
  std::uint32_t a = 0;  ///< counter of instance A
  std::uint32_t b = 0;  ///< counter of instance B
  friend auto operator<=>(const DualLocal&, const DualLocal&) = default;
};

/// Product protocol of two K-state rings. Rule ids: 1 = move instance A
/// only, 2 = move instance B only, 3 = move both (both guards hold). The
/// composite move models a node's single atomic step serving both
/// instances, which is how a real node would execute two protocol stacks.
class DualKStateRing {
 public:
  using State = DualLocal;

  static constexpr int kRuleA = 1;
  static constexpr int kRuleB = 2;
  static constexpr int kRuleBoth = 3;

  DualKStateRing(std::size_t n, std::uint32_t K);

  std::size_t size() const { return n_; }
  std::uint32_t modulus() const { return k_; }

  int enabled_rule(std::size_t i, const State& self, const State& pred,
                   const State& succ) const;
  State apply(std::size_t i, int rule, const State& self, const State& pred,
              const State& succ) const;

  /// A node holds a token iff it holds the token of either instance. The
  /// successor is not read; every protocol's token predicate takes the
  /// same local view.
  bool holds_token(std::size_t i, const State& self, const State& pred,
                   const State& succ) const;

 private:
  std::size_t n_;
  std::uint32_t k_;
};

using DualConfig = std::vector<DualLocal>;

/// Total number of tokens across both instances (0..2 per process).
std::size_t token_count(const DualKStateRing& ring, const DualConfig& config);

/// Number of processes holding at least one token.
std::size_t privileged_count(const DualKStateRing& ring,
                             const DualConfig& config);

/// Legitimate iff each instance individually has exactly one token.
bool is_legitimate(const DualKStateRing& ring, const DualConfig& config);

DualConfig random_config(const DualKStateRing& ring, Rng& rng);

stab::TraceStyle<DualLocal> trace_style(const DualKStateRing& ring);

}  // namespace ssr::dijkstra
