// Dijkstra's self-stabilizing K-state token ring (paper Algorithm 1).
//
// The classical 1974 mutual-exclusion token ring on a unidirectional ring:
// each process holds one counter x_i in {0..K-1}. The bottom process P_0 is
// enabled ("holds the token") iff x_0 = x_{n-1} and then increments; every
// other P_i is enabled iff x_i != x_{i-1} and then copies. With K >= n the
// ring self-stabilizes to exactly one token under the unfair distributed
// daemon (Dijkstra proved K > n; Hoepman tightened the ring case to
// K = n, and the exhaustive checker confirms that boundary for small n).
//
// SSRmin embeds this algorithm as its primary-token sub-protocol (macros
// G_i / C_i of paper Algorithm 2), so the guard/command logic lives in
// free functions reused by ssr::core.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stabilizing/protocol.hpp"
#include "stabilizing/trace.hpp"
#include "util/rng.hpp"

namespace ssr::dijkstra {

/// Local state of a K-state process: just the counter.
struct KStateLocal {
  std::uint32_t x = 0;
  friend auto operator<=>(const KStateLocal&, const KStateLocal&) = default;
};

/// G_i of Algorithm 2: the token/enabledness condition of Dijkstra's ring.
/// For the bottom process (i == 0): x_i == x_pred; otherwise x_i != x_pred.
constexpr bool kstate_guard(std::size_t i, std::uint32_t x_self,
                            std::uint32_t x_pred) {
  return i == 0 ? (x_self == x_pred) : (x_self != x_pred);
}

/// C_i of Algorithm 2: the command. Bottom increments the predecessor's
/// value mod K; others copy it.
constexpr std::uint32_t kstate_command(std::size_t i, std::uint32_t x_pred,
                                       std::uint32_t K) {
  return i == 0 ? (x_pred + 1) % K : x_pred;
}

/// The K-state protocol (satisfies stab::RingProtocol). Rule id 1 is the
/// single rule "if G_i then C_i" (paper's D1/D2 collapsed, Algorithm 2).
class KStateRing {
 public:
  using State = KStateLocal;

  /// Rule id of the unique rule.
  static constexpr int kRule = 1;

  /// Requires n >= 2 and K >= n (the Hoepman bound for stabilization on a
  /// ring under the distributed daemon).
  KStateRing(std::size_t n, std::uint32_t K);

  std::size_t size() const { return n_; }
  std::uint32_t modulus() const { return k_; }

  int enabled_rule(std::size_t i, const State& self, const State& pred,
                   const State& /*succ*/) const {
    return kstate_guard(i, self.x, pred.x) ? kRule : stab::kDisabled;
  }

  State apply(std::size_t i, int rule, const State& self, const State& pred,
              const State& /*succ*/) const;

  /// Token condition: identical to the guard (paper Algorithm 1 lines 6,
  /// 10). The successor is not read; every protocol's token predicate takes
  /// the same local view.
  bool holds_token(std::size_t i, const State& self, const State& pred,
                   const State& /*succ*/) const {
    return kstate_guard(i, self.x, pred.x);
  }

 private:
  std::size_t n_;
  std::uint32_t k_;
};

using KStateConfig = std::vector<KStateLocal>;

/// Number of token-holding processes in the configuration.
std::size_t token_count(const KStateRing& ring, const KStateConfig& config);

/// Legitimacy (paper §2.3): the configuration is (x, x, ..., x) or
/// (x+1, ..., x+1, x, ..., x) with 1 <= l <= n-1 leading x+1 entries,
/// arithmetic mod K. Equivalent to token_count == 1.
bool is_legitimate(const KStateRing& ring, const KStateConfig& config);

/// All legitimate configurations: n * K of them.
std::vector<KStateConfig> enumerate_legitimate(const KStateRing& ring);

/// Uniformly random (generally illegitimate) configuration.
KStateConfig random_config(const KStateRing& ring, Rng& rng);

/// Worst-case convergence bound under the unfair distributed daemon,
/// 3n(n-1)/2 steps (Altisen et al. 2019, cited as [1] by the paper and used
/// in its Lemma 8).
std::uint64_t convergence_step_bound(std::size_t n);

/// Trace formatting hooks ("3" / "T" marks) for Figure-11-style tables.
stab::TraceStyle<KStateLocal> trace_style(const KStateRing& ring);

}  // namespace ssr::dijkstra
