// E28 — sharded conservative PDES scale: the CST engine partitions the
// ring into contiguous worker segments synchronized once per lookahead
// window (delay_min), so event throughput is bounded by event-queue and
// node-state work, not by an O(n) holder scan per event. The table sweeps
// the ring size through 10^4 / 10^5 / 10^6 nodes at one and several
// workers and reports events/sec, wall ns per event (how the per-event
// cost grows with the ring) and wall time; every statistic column must be
// identical across the worker counts of a given size (the engine's
// byte-identity contract, pinned by tests/test_cst_parallel.cpp). Each
// row records the host's hardware thread count (`nproc`), so a row whose
// workers outnumber the cores that ran it says so.
//
//   --smoke        tiny run for CI gating (exit 1 if the 1-vs-2 worker
//                  statistics diverge)
//   --workers W    extra worker count to bench next to the serial row
//                  (default 4; also SSRING_BENCH_THREADS)
#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/legitimacy.hpp"
#include "msgpass/factories.hpp"
#include "util/table.hpp"

namespace {

using namespace ssr;

msgpass::NetworkParams net(std::uint64_t seed, std::size_t workers) {
  msgpass::NetworkParams p;
  p.delay_min = 0.5;
  p.delay_max = 1.0;
  p.loss_probability = 0.0;
  p.refresh_interval = 8.0;
  p.service_min = 0.4;
  p.service_max = 0.9;
  p.seed = seed;
  p.workers = workers;
  return p;
}

struct RunResult {
  msgpass::CoverageStats stats;
  double wall_ms = 0.0;
  std::size_t workers = 0;
};

RunResult run_ssrmin(std::size_t n, double duration, std::size_t workers) {
  const auto K = static_cast<std::uint32_t>(n + 1);
  core::SsrMinRing ring(n, K);
  auto sim = msgpass::make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0),
                                      net(11, workers));
  const auto t0 = std::chrono::steady_clock::now();
  RunResult r;
  r.stats = sim.run(duration);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.workers = sim.workers();
  return r;
}

void add_row(TextTable& table, std::size_t n, double duration,
             const RunResult& r) {
  const double secs = r.wall_ms / 1000.0;
  const auto events = static_cast<double>(r.stats.events);
  const double eps = secs > 0.0 ? events / secs : 0.0;
  const double ns_per_event = events > 0.0 ? r.wall_ms * 1e6 / events : 0.0;
  table.row()
      .cell(n)
      .cell(r.workers)
      .cell(static_cast<std::size_t>(std::thread::hardware_concurrency()))
      .cell(duration, 0)
      .cell(r.stats.events)
      .cell(eps, 0)
      .cell(ns_per_event, 1)
      .cell(r.wall_ms, 1)
      .cell(100.0 * r.stats.coverage(), 2)
      .cell(r.stats.min_holders)
      .cell(r.stats.max_holders)
      .cell(r.stats.handovers);
}

bool same_stats(const msgpass::CoverageStats& a,
                const msgpass::CoverageStats& b) {
  return a.observed_time == b.observed_time &&
         a.zero_token_time == b.zero_token_time &&
         a.zero_intervals == b.zero_intervals &&
         a.min_holders == b.min_holders && a.max_holders == b.max_holders &&
         a.events == b.events && a.deliveries == b.deliveries &&
         a.transmissions == b.transmissions && a.losses == b.losses &&
         a.rule_executions == b.rule_executions &&
         a.handovers == b.handovers;
}

int smoke() {
  const std::size_t n = 4096;
  const double duration = 30.0;
  const RunResult serial = run_ssrmin(n, duration, 1);
  const RunResult sharded = run_ssrmin(n, duration, 2);
  std::cout << "bench_cst smoke: n=" << n << " events=" << serial.stats.events
            << " coverage=" << 100.0 * serial.stats.coverage()
            << "% holders=[" << serial.stats.min_holders << ","
            << serial.stats.max_holders << "]\n";
  if (serial.stats.events == 0) {
    std::cerr << "smoke FAIL: no events processed\n";
    return 1;
  }
  if (!same_stats(serial.stats, sharded.stats)) {
    std::cerr << "smoke FAIL: statistics diverge between 1 and 2 workers\n";
    return 1;
  }
  if (serial.stats.min_holders < 1 || serial.stats.max_holders > 2) {
    std::cerr << "smoke FAIL: holder count left [1,2] from a legitimate "
                 "start\n";
    return 1;
  }
  std::cout << "smoke OK: 1-vs-2 worker statistics identical\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return smoke();
  }
  std::size_t extra_workers = bench::thread_count(argc, argv);
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0) {
      extra_workers = static_cast<std::size_t>(std::atol(argv[i + 1]));
    }
  }
  if (extra_workers == 0) extra_workers = 4;

  bench::print_header(
      "E28: sharded CST engine at scale", "Section 5 (CST transform)",
      "the conservative PDES engine sustains million-node CST rings; "
      "statistics are byte-identical at every worker count");

  // Durations shrink with n so every row processes a few million events
  // (the per-node event rate is fixed by refresh_interval).
  struct ScalePoint {
    std::size_t n;
    double duration;
  };
  const std::vector<ScalePoint> points =
      bench::full_mode()
          ? std::vector<ScalePoint>{{10'000, 400.0},
                                    {100'000, 40.0},
                                    {1'000'000, 8.0}}
          : std::vector<ScalePoint>{{10'000, 40.0}, {100'000, 8.0}};

  TextTable table({"n", "workers", "nproc", "duration", "events",
                   "events_per_sec", "ns_per_event", "wall ms", "coverage %",
                   "min holders", "max holders", "handovers"});
  for (const ScalePoint& p : points) {
    const RunResult serial = run_ssrmin(p.n, p.duration, 1);
    add_row(table, p.n, p.duration, serial);
    if (extra_workers > 1) {
      const RunResult sharded = run_ssrmin(p.n, p.duration, extra_workers);
      add_row(table, p.n, p.duration, sharded);
      if (!same_stats(serial.stats, sharded.stats)) {
        std::cerr << "ERROR: n=" << p.n << " statistics diverge between 1 and "
                  << sharded.workers << " workers\n";
        return 1;
      }
    }
  }
  std::cout << table.render() << '\n';
  bench::maybe_export(table, "cst");
  std::cout << "expectation: every statistic column is identical across the "
               "worker counts of a size (rows differ only in wall ms / "
               "events_per_sec); coverage stays 100% with holders in [1,2] "
               "from the legitimate start.\n";
  return 0;
}
