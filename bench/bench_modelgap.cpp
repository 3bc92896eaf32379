// E7 / E8 / E9 — Figures 11-13 and Theorem 3: the model gap in the
// message-passing model. Under the CST transform with real link delays:
//
//   Figure 11: Dijkstra's token ring loses its token during every
//              handover (zero-holder windows);
//   Figure 12: two independent Dijkstra instances still hit instants with
//              zero holders when both tokens are in flight;
//   Figure 13: SSRmin keeps 1..2 holders at every instant — graceful
//              handover / model gap tolerance.
//
//   --smoke        one quick cell per algorithm for CI gating (exit 1 if
//                  ssrmin leaves [1,2] holders or dijkstra shows no gap)
//   --workers W    shard the CST engine over W workers (0 = hardware);
//                  the emitted statistics are byte-identical at every
//                  worker count, only wall time changes
#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "core/legitimacy.hpp"
#include "msgpass/factories.hpp"
#include "util/table.hpp"

namespace {

using namespace ssr;

std::size_t g_workers = 1;

msgpass::NetworkParams net(std::uint64_t seed, double delay) {
  msgpass::NetworkParams p;
  p.delay_min = 0.5 * delay;
  p.delay_max = delay;
  p.loss_probability = 0.0;
  p.refresh_interval = 8.0 * delay;
  p.service_min = 0.4;
  p.service_max = 0.9;
  p.seed = seed;
  p.workers = g_workers;
  return p;
}

void add_row(TextTable& table, const std::string& algo, std::size_t n,
             double delay, const msgpass::CoverageStats& s) {
  const double mean_gap =
      s.zero_intervals > 0
          ? s.zero_token_time / static_cast<double>(s.zero_intervals)
          : 0.0;
  table.row()
      .cell(algo)
      .cell(n)
      .cell(delay, 1)
      .cell(100.0 * s.coverage(), 2)
      .cell(s.zero_intervals)
      .cell(mean_gap, 2)
      .cell(s.min_holders)
      .cell(s.max_holders)
      .cell(s.handovers);
}

int smoke() {
  const std::size_t n = 8;
  const auto K = static_cast<std::uint32_t>(n + 1);
  const double duration = 2000.0;
  msgpass::CoverageStats dij, ssr_s;
  {
    dijkstra::KStateRing ring(n, K);
    auto sim =
        msgpass::make_kstate_cst(ring, dijkstra::KStateConfig(n), net(7, 2.0));
    dij = sim.run(duration);
  }
  {
    core::SsrMinRing ring(n, K);
    auto sim = msgpass::make_ssrmin_cst(
        ring, core::canonical_legitimate(ring, 0), net(7, 2.0));
    ssr_s = sim.run(duration);
  }
  std::cout << "bench_modelgap smoke: dijkstra coverage="
            << 100.0 * dij.coverage() << "% ssrmin coverage="
            << 100.0 * ssr_s.coverage() << "% holders=["
            << ssr_s.min_holders << "," << ssr_s.max_holders << "]\n";
  if (ssr_s.min_holders < 1 || ssr_s.max_holders > 2 ||
      ssr_s.zero_intervals != 0) {
    std::cerr << "smoke FAIL: ssrmin left the 1..2 holder band\n";
    return 1;
  }
  if (dij.zero_intervals == 0) {
    std::cerr << "smoke FAIL: dijkstra shows no zero-holder window\n";
    return 1;
  }
  std::cout << "smoke OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return smoke();
  }
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0) {
      g_workers = static_cast<std::size_t>(std::atol(argv[i + 1]));
    }
  }
  bench::print_header(
      "E7/E8/E9: token availability in the message-passing model",
      "Figures 11, 12, 13; Theorem 3",
      "SSRmin sustains 100% coverage with 1..2 holders; Dijkstra and "
      "2x Dijkstra leave zero-token windows that grow with link delay");

  const std::vector<std::size_t> sizes =
      bench::full_mode() ? std::vector<std::size_t>{5, 10, 20, 40}
                         : std::vector<std::size_t>{5, 10, 20};
  const std::vector<double> delays = bench::full_mode()
                                         ? std::vector<double>{1.0, 2.0, 4.0, 8.0}
                                         : std::vector<double>{1.0, 4.0};
  const double duration = bench::full_mode() ? 20000.0 : 6000.0;

  TextTable table({"algorithm", "n", "delay", "coverage %", "zero intervals",
                   "mean gap", "min holders", "max holders", "handovers"});

  for (std::size_t n : sizes) {
    const auto K = static_cast<std::uint32_t>(n + 1);
    for (double delay : delays) {
      {
        dijkstra::KStateRing ring(n, K);
        auto sim = msgpass::make_kstate_cst(ring, dijkstra::KStateConfig(n),
                                            net(7, delay));
        add_row(table, "dijkstra (Fig.11)", n, delay, sim.run(duration));
      }
      {
        dijkstra::DualKStateRing ring(n, K);
        dijkstra::DualConfig init(n);
        for (std::size_t i = 0; i < n; ++i) init[i].b = (i < n / 2) ? 1 : 0;
        auto sim = msgpass::make_dual_cst(ring, init, net(7, delay));
        add_row(table, "2x dijkstra (Fig.12)", n, delay, sim.run(duration));
      }
      {
        core::SsrMinRing ring(n, K);
        auto sim = msgpass::make_ssrmin_cst(
            ring, core::canonical_legitimate(ring, 0), net(7, delay));
        add_row(table, "ssrmin (Fig.13)", n, delay, sim.run(duration));
      }
    }
  }
  if (bench::full_mode()) {
    // Large-n rows (sharded engine): the model gap persists at ring sizes
    // the node-synchronous figures never reached, and SSRmin's [1,2]
    // holder band is size-independent.
    for (std::size_t n : {std::size_t{200}, std::size_t{1000}}) {
      const auto K = static_cast<std::uint32_t>(n + 1);
      const double delay = 1.0;
      const double large_duration = 4000.0;
      {
        dijkstra::KStateRing ring(n, K);
        auto sim = msgpass::make_kstate_cst(ring, dijkstra::KStateConfig(n),
                                            net(7, delay));
        add_row(table, "dijkstra (Fig.11)", n, delay,
                sim.run(large_duration));
      }
      {
        core::SsrMinRing ring(n, K);
        auto sim = msgpass::make_ssrmin_cst(
            ring, core::canonical_legitimate(ring, 0), net(7, delay));
        add_row(table, "ssrmin (Fig.13)", n, delay, sim.run(large_duration));
      }
    }
  }
  std::cout << table.render() << '\n';
  bench::maybe_export(table, "modelgap");
  std::cout
      << "paper expectation: ssrmin rows read coverage 100%, zero intervals "
         "0, holders in [1,2]; dijkstra rows show coverage < 100% with gaps "
         "widening as the delay grows; the dual ring improves coverage but "
         "cannot reach 100%.\n";
  return 0;
}
