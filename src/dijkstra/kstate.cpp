#include "dijkstra/kstate.hpp"

#include "util/assert.hpp"

namespace ssr::dijkstra {

KStateRing::KStateRing(std::size_t n, std::uint32_t K) : n_(n), k_(K) {
  SSR_REQUIRE(n >= 2, "ring needs at least two processes");
  // Dijkstra's proof uses K > n; Hoepman ("even if K = N") showed the
  // K = n boundary still stabilizes on rings, and the exhaustive checker
  // verifies that machine-checked for small n, so K = n is admitted here.
  SSR_REQUIRE(K >= n, "K-state ring requires K >= n for stabilization");
}

KStateRing::State KStateRing::apply(std::size_t i, int rule, const State& self,
                                    const State& pred,
                                    const State& /*succ*/) const {
  SSR_REQUIRE(rule == kRule, "K-state ring has a single rule");
  SSR_REQUIRE(kstate_guard(i, self.x, pred.x), "rule applied while disabled");
  return State{kstate_command(i, pred.x, k_)};
}

std::size_t token_count(const KStateRing& ring, const KStateConfig& config) {
  SSR_REQUIRE(config.size() == ring.size(), "configuration/ring size mismatch");
  const std::size_t n = config.size();
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (ring.holds_token(i, config[i], config[stab::pred_index(i, n)],
                         config[stab::succ_index(i, n)])) {
      ++count;
    }
  }
  return count;
}

bool is_legitimate(const KStateRing& ring, const KStateConfig& config) {
  // Paper §2.3: the configuration must be (x, ..., x) or
  // (x+1, ..., x+1, x, ..., x) with 1 <= l <= n-1 leading x+1 entries,
  // arithmetic mod K. Note this is stricter than "exactly one token":
  // e.g. (5, 3, 3) has one token but a step of 2 and is not of the
  // required form (it is, however, reachable only from illegitimate
  // configurations, so closure still holds for the strict set).
  SSR_REQUIRE(config.size() == ring.size(), "configuration/ring size mismatch");
  const std::size_t n = config.size();
  const std::uint32_t K = ring.modulus();
  const std::uint32_t x = config[n - 1].x;
  std::size_t l = 0;  // number of leading x+1 entries
  while (l < n && config[l].x == (x + 1) % K) ++l;
  if (l == n) return false;  // (x+1)^n is the all-equal form for x' = x+1
  for (std::size_t i = l; i < n; ++i) {
    if (config[i].x != x) return false;
  }
  return true;
}

std::vector<KStateConfig> enumerate_legitimate(const KStateRing& ring) {
  const std::size_t n = ring.size();
  const std::uint32_t K = ring.modulus();
  std::vector<KStateConfig> out;
  out.reserve(static_cast<std::size_t>(K) * n);
  for (std::uint32_t x = 0; x < K; ++x) {
    for (std::size_t l = 0; l < n; ++l) {
      // l = 0: all equal to x. l >= 1: first l entries are x+1, rest x.
      KStateConfig c(n);
      for (std::size_t i = 0; i < n; ++i) {
        c[i].x = (i < l) ? (x + 1) % K : x;
      }
      out.push_back(std::move(c));
    }
  }
  return out;
}

KStateConfig random_config(const KStateRing& ring, Rng& rng) {
  KStateConfig c(ring.size());
  for (auto& s : c) s.x = static_cast<std::uint32_t>(rng.below(ring.modulus()));
  return c;
}

std::uint64_t convergence_step_bound(std::size_t n) {
  return 3ULL * n * (n - 1) / 2;
}

stab::TraceStyle<KStateLocal> trace_style(const KStateRing& ring) {
  stab::TraceStyle<KStateLocal> style;
  style.format_state = [](const KStateLocal& s) { return std::to_string(s.x); };
  style.annotate = [ring](const std::vector<KStateLocal>& config,
                          std::size_t i) -> std::string {
    const std::size_t n = config.size();
    return ring.holds_token(i, config[i], config[stab::pred_index(i, n)],
                            config[stab::succ_index(i, n)])
               ? "T"
               : "";
  };
  return style;
}

}  // namespace ssr::dijkstra
