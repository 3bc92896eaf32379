// SSRmin on real threads: one thread per node, latest-value mailboxes as
// links, live prints of every activation/deactivation, and a record of
// every holder transition showing that some node is active at every
// instant — the graceful handover, physically.
//
// Usage: ./examples/threaded_ring [nodes] [milliseconds]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "core/legitimacy.hpp"
#include "runtime/threaded_ring.hpp"

int main(int argc, char** argv) {
  using namespace ssr;
  using namespace std::chrono_literals;
  const std::size_t nodes =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 5;
  const int millis = argc > 2 ? std::atoi(argv[2]) : 300;

  const core::SsrMinRing ring(nodes, static_cast<std::uint32_t>(nodes + 1));
  runtime::RuntimeParams params;
  params.refresh_interval = 2ms;
  params.seed = 11;
  runtime::ThreadedRing<core::SsrMinRing> tr(
      ring, core::canonical_legitimate(ring, 0), params);

  std::mutex io;
  std::atomic<int> events{0};
  const auto t0 = std::chrono::steady_clock::now();
  tr.set_activation_callback([&](std::size_t i, bool active) {
    // Only narrate the first handovers; after that just count.
    const int k = events.fetch_add(1);
    if (k < 24) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      std::lock_guard lock(io);
      std::printf("%8lld us  camera %zu %s\n", static_cast<long long>(us), i,
                  active ? "ACTIVATES" : "deactivates");
    }
  });

  std::printf("starting %zu camera nodes (one thread each)...\n\n", nodes);
  tr.start();
  const runtime::Telemetry t = tr.observe(std::chrono::milliseconds(millis));
  tr.stop();
  const runtime::NodeTelemetry total = t.node_totals();

  std::printf("\n--- %d ms of real-time operation ---\n", millis);
  std::printf("activation events        : %d\n", events.load());
  std::printf("holder transitions       : %llu\n",
              static_cast<unsigned long long>(t.handovers()));
  std::printf("us with 0 holders        : %.0f of %.0f  (graceful handover "
              "says 0)\n",
              t.zero_holder_dwell_us(), t.observed_us());
  std::printf("holders observed         : %zu..%zu  (Theorem 1 band: 1..2)\n",
              t.min_holders(), t.max_holders());
  std::printf("messages sent            : %llu\n",
              static_cast<unsigned long long>(total.frames_sent));
  std::printf("protocol rules executed  : %llu\n",
              static_cast<unsigned long long>(total.rule_executions));
  return t.zero_holder_dwell_us() == 0.0 ? 0 : 1;
}
