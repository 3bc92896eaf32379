#include "inclusion/multi.hpp"

#include "stabilizing/cst_node.hpp"
#include "util/assert.hpp"

namespace ssr::incl {

MultiSsrMin::MultiSsrMin(std::size_t n, std::uint32_t K, std::size_t instances)
    : ring_(n, K), instances_(instances) {
  SSR_REQUIRE(instances >= 1, "need at least one instance");
}

void MultiSsrMin::check_state(const State& s) const {
  SSR_REQUIRE(s.slots.size() == instances_,
              "state has the wrong number of instance slots");
}

int MultiSsrMin::enabled_rule(std::size_t i, const State& self,
                              const State& pred, const State& succ) const {
  check_state(self);
  check_state(pred);
  check_state(succ);
  for (std::size_t j = 0; j < instances_; ++j) {
    if (ring_.enabled_rule(i, self.slots[j], pred.slots[j], succ.slots[j]) !=
        stab::kDisabled) {
      return kRuleComposite;
    }
  }
  return stab::kDisabled;
}

MultiSsrMin::State MultiSsrMin::apply(std::size_t i, int rule,
                                      const State& self, const State& pred,
                                      const State& succ) const {
  SSR_REQUIRE(rule == kRuleComposite, "unknown composite rule id");
  SSR_REQUIRE(enabled_rule(i, self, pred, succ) == kRuleComposite,
              "rule applied while disabled");
  State next = self;
  for (std::size_t j = 0; j < instances_; ++j) {
    stab::fire(ring_, i, next.slots[j], pred.slots[j], succ.slots[j]);
  }
  return next;
}

std::size_t MultiSsrMin::tokens_at(std::size_t i, const State& self,
                                   const State& pred,
                                   const State& succ) const {
  check_state(self);
  std::size_t count = 0;
  for (std::size_t j = 0; j < instances_; ++j) {
    if (ring_.holds_token(i, self.slots[j], pred.slots[j], succ.slots[j])) {
      ++count;
    }
  }
  return count;
}

namespace {

/// Extracts instance j's projection of the composite configuration.
core::SsrConfig project(const MultiConfig& c, std::size_t j) {
  core::SsrConfig out(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) out[i] = c[i].slots[j];
  return out;
}

}  // namespace

std::size_t privileged_slots(const MultiSsrMin& ring, const MultiConfig& c) {
  SSR_REQUIRE(c.size() == ring.size(), "configuration/ring size mismatch");
  const std::size_t n = c.size();
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += ring.tokens_at(i, c[i], c[stab::pred_index(i, n)],
                            c[stab::succ_index(i, n)]);
  }
  return total;
}

std::size_t privileged_nodes(const MultiSsrMin& ring, const MultiConfig& c) {
  SSR_REQUIRE(c.size() == ring.size(), "configuration/ring size mismatch");
  const std::size_t n = c.size();
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (ring.tokens_at(i, c[i], c[stab::pred_index(i, n)],
                       c[stab::succ_index(i, n)]) > 0) {
      ++total;
    }
  }
  return total;
}

bool is_legitimate(const MultiSsrMin& ring, const MultiConfig& c) {
  SSR_REQUIRE(c.size() == ring.size(), "configuration/ring size mismatch");
  for (std::size_t j = 0; j < ring.instances(); ++j) {
    if (!core::is_legitimate(ring.base(), project(c, j))) return false;
  }
  return true;
}

MultiConfig staggered_legitimate(const MultiSsrMin& ring) {
  const std::size_t n = ring.size();
  const std::size_t k = ring.instances();
  MultiConfig config(n);
  for (auto& s : config) s.slots.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    // Instance j: token at P_t with t = j * n / k; x-part is x+1 on the
    // prefix before the holder, x from the holder on (Definition 1 with
    // x = 0), holder carries <0.1>.
    const std::size_t t = j * n / k;
    for (std::size_t i = 0; i < n; ++i) {
      config[i].slots[j].x = (i < t) ? 1 : 0;
      config[i].slots[j].rts = false;
      config[i].slots[j].tra = (i == t);
    }
  }
  return config;
}

MultiConfig random_config(const MultiSsrMin& ring, Rng& rng) {
  MultiConfig config(ring.size());
  for (auto& s : config) {
    s.slots.resize(ring.instances());
    for (auto& slot : s.slots) {
      slot.x = static_cast<std::uint32_t>(rng.below(ring.modulus()));
      slot.rts = rng.bernoulli(0.5);
      slot.tra = rng.bernoulli(0.5);
    }
  }
  return config;
}

}  // namespace ssr::incl
