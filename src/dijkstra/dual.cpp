#include "dijkstra/dual.hpp"

#include "util/assert.hpp"

namespace ssr::dijkstra {

DualKStateRing::DualKStateRing(std::size_t n, std::uint32_t K)
    : n_(n), k_(K) {
  SSR_REQUIRE(n >= 2, "ring needs at least two processes");
  SSR_REQUIRE(K > n, "K-state ring requires K > n for stabilization");
}

int DualKStateRing::enabled_rule(std::size_t i, const State& self,
                                 const State& pred,
                                 const State& /*succ*/) const {
  const bool ga = kstate_guard(i, self.a, pred.a);
  const bool gb = kstate_guard(i, self.b, pred.b);
  if (ga && gb) return kRuleBoth;
  if (ga) return kRuleA;
  if (gb) return kRuleB;
  return stab::kDisabled;
}

DualKStateRing::State DualKStateRing::apply(std::size_t i, int rule,
                                            const State& self,
                                            const State& pred,
                                            const State& /*succ*/) const {
  State next = self;
  switch (rule) {
    case kRuleA:
      SSR_REQUIRE(kstate_guard(i, self.a, pred.a), "instance A disabled");
      next.a = kstate_command(i, pred.a, k_);
      break;
    case kRuleB:
      SSR_REQUIRE(kstate_guard(i, self.b, pred.b), "instance B disabled");
      next.b = kstate_command(i, pred.b, k_);
      break;
    case kRuleBoth:
      SSR_REQUIRE(kstate_guard(i, self.a, pred.a) &&
                      kstate_guard(i, self.b, pred.b),
                  "some instance disabled");
      next.a = kstate_command(i, pred.a, k_);
      next.b = kstate_command(i, pred.b, k_);
      break;
    default:
      SSR_REQUIRE(false, "unknown rule id for DualKStateRing");
  }
  return next;
}

bool DualKStateRing::holds_token(std::size_t i, const State& self,
                                 const State& pred,
                                 const State& /*succ*/) const {
  return kstate_guard(i, self.a, pred.a) || kstate_guard(i, self.b, pred.b);
}

std::size_t token_count(const DualKStateRing& ring, const DualConfig& config) {
  SSR_REQUIRE(config.size() == ring.size(), "configuration/ring size mismatch");
  const std::size_t n = config.size();
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& pred = config[stab::pred_index(i, n)];
    if (kstate_guard(i, config[i].a, pred.a)) ++count;
    if (kstate_guard(i, config[i].b, pred.b)) ++count;
  }
  return count;
}

std::size_t privileged_count(const DualKStateRing& ring,
                             const DualConfig& config) {
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

bool is_legitimate(const DualKStateRing& ring, const DualConfig& config) {
  SSR_REQUIRE(config.size() == ring.size(), "configuration/ring size mismatch");
  const std::size_t n = config.size();
  std::size_t tokens_a = 0;
  std::size_t tokens_b = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& pred = config[stab::pred_index(i, n)];
    if (kstate_guard(i, config[i].a, pred.a)) ++tokens_a;
    if (kstate_guard(i, config[i].b, pred.b)) ++tokens_b;
  }
  return tokens_a == 1 && tokens_b == 1;
}

DualConfig random_config(const DualKStateRing& ring, Rng& rng) {
  DualConfig c(ring.size());
  for (auto& s : c) {
    s.a = static_cast<std::uint32_t>(rng.below(ring.modulus()));
    s.b = static_cast<std::uint32_t>(rng.below(ring.modulus()));
  }
  return c;
}

stab::TraceStyle<DualLocal> trace_style(const DualKStateRing& ring) {
  stab::TraceStyle<DualLocal> style;
  style.format_state = [](const DualLocal& s) {
    return std::to_string(s.a) + "|" + std::to_string(s.b);
  };
  style.annotate = [ring](const std::vector<DualLocal>& config,
                          std::size_t i) -> std::string {
    const std::size_t n = config.size();
    const auto& pred = config[stab::pred_index(i, n)];
    std::string marks;
    if (kstate_guard(i, config[i].a, pred.a)) marks += "T1";
    if (kstate_guard(i, config[i].b, pred.b)) marks += "T2";
    return marks;
  };
  return style;
}

}  // namespace ssr::dijkstra
