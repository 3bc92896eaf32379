// E28 — sharded conservative PDES scale: the CST engine partitions the
// ring into contiguous worker segments synchronized once per lookahead
// window (delay_min), so event throughput is bounded by event-queue and
// node-state work, not by an O(n) holder scan per event. The table sweeps
// the ring size through 10^4 / 10^5 / 10^6 nodes at one and several
// workers and reports events/sec, wall ns per event (how the per-event
// cost grows with the ring) and wall time. Each (n, workers) cell runs
// kRuns times, the worker counts alternating, and its row gives the median
// wall time (`runs` says how many); a single run on a shared host swings
// by up to 5x with several workers. Every statistic column must be
// identical across all runs of a given size, at every worker count (the
// engine's byte-identity contract, pinned by tests/test_cst_parallel.cpp);
// otherwise the bench exits 1. Each row records the host's hardware
// thread count (`nproc`), so a row whose workers outnumber the cores that
// ran it says so.
//
//   --smoke        tiny run for CI gating, one run per cell (exit 1 if the
//                  1-vs-2 worker statistics diverge)
//   --workers W    extra worker count to bench next to the serial row
//                  (default 4; also SSRING_BENCH_THREADS)
#include <algorithm>
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

constexpr std::size_t kRuns = 3;

/// One row for runs of one (n, workers) cell with identical statistics:
/// the wall time, events/sec and ns/event of the median run.
void add_row(TextTable& table, std::size_t n, double duration,
             const std::vector<RunResult>& runs) {
  std::vector<double> walls;
  for (const RunResult& run : runs) walls.push_back(run.wall_ms);
  std::sort(walls.begin(), walls.end());
  const double wall_ms = walls[walls.size() / 2];
  const RunResult& r = runs.front();
  const double secs = wall_ms / 1000.0;
  const auto events = static_cast<double>(r.stats.events);
  const double eps = secs > 0.0 ? events / secs : 0.0;
  const double ns_per_event = events > 0.0 ? wall_ms * 1e6 / events : 0.0;
  table.row()
      .cell(n)
      .cell(r.workers)
      .cell(static_cast<std::size_t>(std::thread::hardware_concurrency()))
      .cell(runs.size())
      .cell(duration, 0)
      .cell(r.stats.events)
      .cell(eps, 0)
      .cell(ns_per_event, 1)
      .cell(wall_ms, 1)
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

  TextTable table({"n", "workers", "nproc", "runs", "duration", "events",
                   "events_per_sec", "ns_per_event", "wall ms", "coverage %",
                   "min holders", "max holders", "handovers"});
  std::vector<std::size_t> worker_counts{1};
  if (extra_workers > 1) worker_counts.push_back(extra_workers);
  for (const ScalePoint& p : points) {
    std::vector<std::vector<RunResult>> cells(worker_counts.size());
    for (std::size_t run = 0; run < kRuns; ++run) {
      for (std::size_t c = 0; c < worker_counts.size(); ++c) {
        cells[c].push_back(run_ssrmin(p.n, p.duration, worker_counts[c]));
        const RunResult& last = cells[c].back();
        if (!same_stats(cells[0][0].stats, last.stats)) {
          std::cerr << "ERROR: n=" << p.n << " statistics diverge between "
                    << "run 1 at 1 worker and run " << run + 1 << " at "
                    << last.workers << " workers\n";
          return 1;
        }
      }
    }
    for (const auto& cell : cells) add_row(table, p.n, p.duration, cell);
  }
  std::cout << table.render() << '\n';
  bench::maybe_export(table, "cst");
  std::cout << "expectation: every statistic column is identical across the "
               "runs and worker counts of a size (rows differ only in wall "
               "ms / events_per_sec / ns_per_event, each the median of "
               "`runs` runs); coverage stays 100% with holders in [1,2] "
               "from the legitimate start.\n";
  return 0;
}
