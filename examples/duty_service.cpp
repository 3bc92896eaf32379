// The deployment-facing API in ~40 lines: a DutyService runs the ring and
// calls you back when your node must start or stop the privileged work.
// Here the "work" is printing; in the paper's system it would be
// start/stop recording.
//
// Usage: ./examples/duty_service [nodes] [milliseconds]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "inclusion/service.hpp"

int main(int argc, char** argv) {
  using namespace ssr;
  using namespace std::chrono_literals;
  const std::size_t nodes =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 5;
  const int millis = argc > 2 ? std::atoi(argv[2]) : 400;

  incl::DutyServiceParams params;
  params.node_count = nodes;
  params.runtime.refresh_interval = 1ms;

  std::atomic<int> narrated{0};
  incl::DutyService service(params, [&](std::size_t node, bool on) {
    if (narrated.fetch_add(1) < 16) {
      std::printf("  node %zu %s duty\n", node, on ? "takes" : "leaves");
    }
  });

  std::printf("starting the duty service on %zu nodes...\n", nodes);
  service.start();
  // Inject a fault mid-run: the service self-stabilizes through it.
  std::this_thread::sleep_for(std::chrono::milliseconds(millis / 2));
  std::printf("  !! injecting a transient fault at node 1 !!\n");
  service.corrupt(1);
  const runtime::Telemetry coverage =
      service.observe(std::chrono::milliseconds(millis / 2));
  service.stop();

  const incl::DutyStats stats = service.stats();
  std::printf("\n--- duty report ---\n");
  for (std::size_t i = 0; i < nodes; ++i) {
    std::printf("node %zu: %.1f ms on duty across %llu activations\n", i,
                1000.0 * stats.duty_seconds[i],
                static_cast<unsigned long long>(stats.activations[i]));
  }
  std::printf("coverage after the fault: %.0f us observed, %.0f us with "
              "zero holders, %zu..%zu on duty\n",
              coverage.observed_us(), coverage.zero_holder_dwell_us(),
              coverage.min_holders(), coverage.max_holders());
  return 0;
}
