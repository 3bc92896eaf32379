#include "msgpass/factories.hpp"

#include "util/assert.hpp"

namespace ssr::msgpass {

namespace {

/// The protocol's own token predicate on a node's local view.
template <typename P>
auto local_view_token(const P& ring) {
  return [ring](std::size_t i, const typename P::State& self,
                const typename P::State& pred_view,
                const typename P::State& succ_view) {
    return ring.holds_token(i, self, pred_view, succ_view);
  };
}

}  // namespace

void NetworkParams::validate() const {
  SSR_REQUIRE(delay_min > 0.0, "message delay must be positive");
  SSR_REQUIRE(delay_max >= delay_min, "delay_max must be >= delay_min");
  SSR_REQUIRE(loss_probability >= 0.0 && loss_probability < 1.0,
              "loss probability must be in [0, 1)");
  SSR_REQUIRE(duplicate_probability >= 0.0 && duplicate_probability < 1.0,
              "duplicate probability must be in [0, 1)");
  SSR_REQUIRE(refresh_interval > 0.0, "refresh interval must be positive");
  SSR_REQUIRE(service_min > 0.0, "service time must be positive");
  SSR_REQUIRE(service_max >= service_min, "service_max must be >= service_min");
}

double NetworkParams::draw_delay(Rng& rng) const {
  switch (delay_model) {
    case DelayModel::kUniform:
      return delay_min + rng.uniform01() * (delay_max - delay_min);
    case DelayModel::kExponentialTail: {
      const double spread = delay_max - delay_min;
      // Degenerate spread keeps the model total (fixed delay).
      if (spread <= 0.0) return delay_min;
      return delay_min + rng.exponential(spread);
    }
  }
  SSR_ASSERT(false, "unknown delay model");
}

CstSimulation<core::SsrMinRing> make_ssrmin_cst(const core::SsrMinRing& ring,
                                                core::SsrConfig initial,
                                                NetworkParams params) {
  return CstSimulation<core::SsrMinRing>(ring, std::move(initial),
                                         local_view_token(ring), params);
}

RoundSimulation<core::SsrMinRing> make_ssrmin_rounds(
    const core::SsrMinRing& ring, core::SsrConfig initial,
    RoundParams params) {
  return RoundSimulation<core::SsrMinRing>(ring, std::move(initial),
                                           local_view_token(ring), params);
}

RoundSimulation<dijkstra::KStateRing> make_kstate_rounds(
    const dijkstra::KStateRing& ring, dijkstra::KStateConfig initial,
    RoundParams params) {
  return RoundSimulation<dijkstra::KStateRing>(ring, std::move(initial),
                                               local_view_token(ring), params);
}

CstSimulation<core::SsrMinRing> make_ssrmin_weak_cst(
    const core::SsrMinRing& ring, core::SsrConfig initial,
    NetworkParams params) {
  auto token = [ring](std::size_t i, const core::SsrState& self,
                      const core::SsrState& pred_view,
                      const core::SsrState& /*succ_view*/) {
    return ring.holds_primary(i, self, pred_view) ||
           ring.holds_secondary_weak(self);
  };
  return CstSimulation<core::SsrMinRing>(ring, std::move(initial),
                                         std::move(token), params);
}

CstSimulation<core::SsrMinRing> make_ssrmin_secondary_only_cst(
    const core::SsrMinRing& ring, core::SsrConfig initial,
    NetworkParams params, bool strong_condition) {
  auto token = [ring, strong_condition](std::size_t /*i*/,
                                        const core::SsrState& self,
                                        const core::SsrState& /*pred_view*/,
                                        const core::SsrState& succ_view) {
    return strong_condition ? ring.holds_secondary(self, succ_view)
                            : ring.holds_secondary_weak(self);
  };
  return CstSimulation<core::SsrMinRing>(ring, std::move(initial),
                                         std::move(token), params);
}

CstSimulation<dijkstra::KStateRing> make_kstate_cst(
    const dijkstra::KStateRing& ring, dijkstra::KStateConfig initial,
    NetworkParams params) {
  return CstSimulation<dijkstra::KStateRing>(ring, std::move(initial),
                                             local_view_token(ring), params);
}

CstSimulation<dijkstra::DualKStateRing> make_dual_cst(
    const dijkstra::DualKStateRing& ring, dijkstra::DualConfig initial,
    NetworkParams params) {
  return CstSimulation<dijkstra::DualKStateRing>(
      ring, std::move(initial), local_view_token(ring), params);
}

}  // namespace ssr::msgpass
