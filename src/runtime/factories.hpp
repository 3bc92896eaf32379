// Ready-made threaded rings with the protocols' local-view token
// predicates wired in.
#pragma once

#include <memory>

#include "core/ssrmin.hpp"
#include "dijkstra/kstate.hpp"
#include "runtime/threaded_ring.hpp"

namespace ssr::runtime {

/// SSRmin on real threads — the graceful-handover runtime (Theorem 3's
/// guarantee holds for the exact holder timeline observe() records).
std::unique_ptr<ThreadedRing<core::SsrMinRing>> make_ssrmin_threaded(
    const core::SsrMinRing& ring, core::SsrConfig initial,
    RuntimeParams params);

/// Dijkstra's K-state ring on real threads — exhibits genuine zero-token
/// windows while a state update is in flight (Figure 11).
std::unique_ptr<ThreadedRing<dijkstra::KStateRing>> make_kstate_threaded(
    const dijkstra::KStateRing& ring, dijkstra::KStateConfig initial,
    RuntimeParams params);

}  // namespace ssr::runtime
