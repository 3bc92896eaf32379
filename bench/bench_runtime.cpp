// E13 — graceful handover on real threads and real sockets. The SSRmin
// ring runs on one jthread per node, then over real loopback UDP sockets
// on the multi-ring reactor (one ring, one shard). Both runtimes record
// every holder transition into the ring's Telemetry, so the table reads
// exact zero-holder dwell, not samples: SSRmin must read 0 on clean links.
// The Dijkstra baseline on threads shows the token in transit (Figure 11):
// no node holds it while the state update that passes it is in flight.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "core/legitimacy.hpp"
#include "dijkstra/kstate.hpp"
#include "runtime/reactor.hpp"
#include "runtime/threaded_ring.hpp"
#include "util/table.hpp"

namespace {

using namespace ssr;

/// One row of the shared column set; the wire counters come from the
/// runtime that produced @p t.
void add_row(TextTable& table, const char* runtime, const char* algorithm,
             std::size_t n, const char* faults, const runtime::Telemetry& t,
             std::uint64_t rules, std::uint64_t sent, std::uint64_t lost) {
  table.row()
      .cell(runtime)
      .cell(algorithm)
      .cell(n)
      .cell(faults)
      .cell(t.observed_us(), 0)
      .cell(t.zero_holder_dwell_us(), 1)
      .cell(t.zero_intervals())
      .cell(t.min_holders())
      .cell(t.max_holders())
      .cell(t.handovers())
      .cell(rules)
      .cell(sent)
      .cell(lost);
}

/// Runs @p protocol on threads from @p initial for @p window and adds its
/// row.
template <typename P>
void add_threaded_row(TextTable& table, const char* algorithm,
                      const P& protocol, std::vector<typename P::State> initial,
                      const runtime::RuntimeParams& params,
                      std::chrono::milliseconds window) {
  runtime::ThreadedRing<P> ring(protocol, std::move(initial), params);
  ring.start();
  const runtime::Telemetry t = ring.observe(window);
  ring.stop();
  const std::size_t n = protocol.size();
  const runtime::NodeTelemetry total = t.node_totals();
  add_row(table, "threads", algorithm, n, "none", t, total.rule_executions,
          total.frames_sent, total.frames_dropped + total.frames_corrupted);
}

}  // namespace

int main() {
  using namespace std::chrono_literals;
  bench::print_header(
      "E13: threaded runtime handover", "Theorem 3 on real threads",
      "the SSRmin ring spends no time without a holder and never has more "
      "than two; the token circulates and hands over gracefully");

  const std::vector<std::size_t> sizes{4, 8};
  const std::chrono::milliseconds window = bench::full_mode() ? 1500ms : 600ms;

  TextTable table({"runtime", "algorithm", "n", "faults", "observed us",
                   "zero dwell us", "zero windows", "min holders",
                   "max holders", "handovers", "rules exec", "msgs sent",
                   "lost"});
  for (std::size_t n : sizes) {
    const auto K = static_cast<std::uint32_t>(n + 1);
    runtime::RuntimeParams params;
    params.refresh_interval = 500us;
    params.seed = 2024;
    const core::SsrMinRing ssrmin(n, K);
    add_threaded_row(table, "ssrmin", ssrmin,
                     core::canonical_legitimate(ssrmin, 0), params, window);
    const dijkstra::KStateRing kstate(n, K);
    add_threaded_row(table, "dijkstra", kstate, dijkstra::KStateConfig(n),
                     params, window);
  }
  // Real loopback UDP sockets with CRC-framed states, clean and with 20%
  // frame corruption (rejected by checksum, i.e. behaving as loss).
  for (std::size_t n : sizes) {
    for (double corruption : {0.0, 0.2}) {
      runtime::ReactorConfig config;
      config.rings = 1;
      config.nodes = n;
      config.refresh_interval = 1000us;
      config.seed = 99;
      config.fault_plan.probabilities.corrupt = corruption;
      config.transport = runtime::ReactorTransport::kUdp;
      config.start = runtime::RingStart::kLegitimate;
      config.per_ring_telemetry = true;
      runtime::MultiRingReactor reactor(config);
      const runtime::ReactorReport r = reactor.run(window);
      add_row(table, "udp", "ssrmin", n,
              corruption == 0.0 ? "none" : "corrupt=0.2",
              reactor.ring_telemetry(0),
              r.rule_executions, r.frames_sent,
              r.frames_dropped + r.frames_rejected + r.kernel_rx_drops);
    }
  }
  std::cout << table.render() << '\n';
  std::cout << "paper expectation: ssrmin zero dwell = 0 with holders in "
               "[1,2] on clean links (corruption behaves as loss, so rare "
               "transients are tolerated there); dijkstra spends most of "
               "the time with 0 holders, because its token is consumed by "
               "the rule that passes it and is in flight until the next "
               "node receives it (its handover is not graceful). handovers "
               "counts changes of the holder set.\n";
  return 0;
}
