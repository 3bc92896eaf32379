#include "runtime/threaded_ring.hpp"

#include "runtime/factories.hpp"

namespace ssr::runtime {

void RuntimeParams::validate() const {
  SSR_REQUIRE(refresh_interval.count() > 0, "refresh interval must be positive");
}

std::unique_ptr<ThreadedRing<core::SsrMinRing>> make_ssrmin_threaded(
    const core::SsrMinRing& ring, core::SsrConfig initial,
    RuntimeParams params) {
  auto token = [ring](std::size_t i, const core::SsrState& self,
                      const core::SsrState& pred_view,
                      const core::SsrState& succ_view) {
    return ring.holds_primary(i, self, pred_view) ||
           ring.holds_secondary(self, succ_view);
  };
  return std::make_unique<ThreadedRing<core::SsrMinRing>>(
      ring, std::move(initial), std::move(token), params);
}

std::unique_ptr<ThreadedRing<dijkstra::KStateRing>> make_kstate_threaded(
    const dijkstra::KStateRing& ring, dijkstra::KStateConfig initial,
    RuntimeParams params) {
  auto token = [ring](std::size_t i, const dijkstra::KStateLocal& self,
                      const dijkstra::KStateLocal& pred_view,
                      const dijkstra::KStateLocal& /*succ_view*/) {
    return ring.holds_token(i, self, pred_view);
  };
  return std::make_unique<ThreadedRing<dijkstra::KStateRing>>(
      ring, std::move(initial), std::move(token), params);
}

}  // namespace ssr::runtime
