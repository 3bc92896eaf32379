// E3 — Lemmas 1, 2, 4, 6 / Theorems 1-2, machine-checked: exhaustive
// verification over the full configuration space for small (n, K), with
// the exact worst-case stabilization time under the adversarial
// distributed daemon.
//
// Each space is checked at 1 worker thread and (when the host has more
// than one hardware thread) at full hardware concurrency; the reports are
// bit-identical at every thread count AND in every Phase B storage mode,
// so the extra rows only measure speed and memory, never answers.
//
// Every check runs in its own forked child process, so each row's memory
// is its own: `peakMiB` is the checker's analytic Phase B high-water mark
// (CheckStats::measured_peak_bytes — per-structure maxima summed, an
// upper bound on what Phase B holds at once), and `rss_mib` is the
// child's peak RSS as wait4() reports it (the bench binary's own few MiB
// included). A row whose check takes under 10 s is the median wall time
// of three runs.
//
// Besides the usual table/export, the run always writes
// BENCH_modelcheck.json (rows: protocol, n, K, configs, threads, nproc,
// mode, wall_ms, peak_mib, spill_bytes, rss_mib, backend, lanes) so
// successive PRs can track the checker's throughput and footprint
// trajectory. `nproc` is the host's hardware thread count, so a row at
// more threads than cores reads as such. `backend`/`lanes` name the
// bit-sliced Phase A engine (u64/avx2/avx512 x 64/256/512) — or
// "scalar"/1 when the odometer sweep ran instead. `spill_bytes` is the
// on-disk move stream (0 for the in-RAM modes).
//
// `--smoke` runs a minimal pass over every storage mode (for the
// sanitizer CI job),
// cross-checks the sliced Phase A against the scalar sweep for report
// identity, forces a kAuto spill under a tight budget, and prints each
// check's peak RSS.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dijkstra/kstate.hpp"
#include "util/table.hpp"
#include "verify/checkers.hpp"

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::vector<std::size_t> thread_counts() {
  const std::size_t hw = nproc();
  if (hw == 1) return {1};
  return {1, hw};
}

/// What a row's child process hands back: the report fields the tables
/// print, its summary line, and the check's wall time. rss_mib is the
/// child's peak RSS, filled in by the parent from wait4().
struct Row {
  ssr::verify::CheckReport report;
  std::string summary;
  double wall_ms = 0.0;
  double rss_mib = 0.0;
};

/// Fixed-size wire image of a Row for the pipe from the child.
struct RowImage {
  std::uint64_t total_configs, legitimate_configs, worst_case_steps,
      min_privileged_anywhere, measured_peak_bytes, spill_bytes;
  bool deadlock_free, closure_holds, token_bounds_hold, convergence_holds,
      phase_a_sliced;
  ssr::verify::PhaseBStorage mode;
  std::uint32_t phase_a_lanes;
  double read_amplification, wall_ms;
  char phase_a_backend[16];
  char summary[512];
};

/// Runs one check in a forked child, so the row's peak RSS is its own.
/// A check that throws ends the bench with its message.
template <typename Checker>
Row run_once(const Checker& checker, ssr::verify::CheckOptions options,
             std::size_t threads, ssr::verify::PhaseBStorage storage) {
  options.threads = threads;
  options.storage = storage;
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("bench_modelcheck: pipe");
    std::exit(1);
  }
  std::cout.flush();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("bench_modelcheck: fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::close(fds[0]);
    RowImage img{};
    try {
      const auto t0 = std::chrono::steady_clock::now();
      const ssr::verify::CheckReport r = checker.run(options);
      img.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      img.total_configs = r.total_configs;
      img.legitimate_configs = r.legitimate_configs;
      img.worst_case_steps = r.worst_case_steps;
      img.min_privileged_anywhere = r.min_privileged_anywhere;
      img.measured_peak_bytes = r.stats.measured_peak_bytes;
      img.spill_bytes = r.stats.spill_bytes;
      img.deadlock_free = r.deadlock_free;
      img.closure_holds = r.closure_holds;
      img.token_bounds_hold = r.token_bounds_hold;
      img.convergence_holds = r.convergence_holds;
      img.phase_a_sliced = r.stats.phase_a_sliced;
      img.mode = r.stats.mode;
      img.phase_a_lanes = r.stats.phase_a_lanes;
      img.read_amplification = r.stats.read_amplification;
      std::snprintf(img.phase_a_backend, sizeof img.phase_a_backend, "%s",
                    r.stats.phase_a_backend.c_str());
      std::snprintf(img.summary, sizeof img.summary, "%s",
                    r.summary().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_modelcheck: check failed: %s\n", e.what());
      ::_exit(1);
    }
    const bool sent = ::write(fds[1], &img, sizeof img) ==
                      static_cast<ssize_t>(sizeof img);
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  RowImage img{};
  std::size_t got = 0;
  while (got < sizeof img) {
    const ssize_t k = ::read(fds[0], reinterpret_cast<char*>(&img) + got,
                             sizeof img - got);
    if (k <= 0) break;
    got += static_cast<std::size_t>(k);
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage usage {};
  ::wait4(pid, &status, 0, &usage);
  if (got != sizeof img || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench_modelcheck: a check's child process failed\n");
    std::exit(1);
  }
  Row row;
  ssr::verify::CheckReport& r = row.report;
  r.total_configs = img.total_configs;
  r.legitimate_configs = img.legitimate_configs;
  r.worst_case_steps = img.worst_case_steps;
  r.min_privileged_anywhere = img.min_privileged_anywhere;
  r.deadlock_free = img.deadlock_free;
  r.closure_holds = img.closure_holds;
  r.token_bounds_hold = img.token_bounds_hold;
  r.convergence_holds = img.convergence_holds;
  r.stats.measured_peak_bytes = img.measured_peak_bytes;
  r.stats.spill_bytes = img.spill_bytes;
  r.stats.phase_a_sliced = img.phase_a_sliced;
  r.stats.mode = img.mode;
  r.stats.phase_a_lanes = img.phase_a_lanes;
  r.stats.read_amplification = img.read_amplification;
  r.stats.phase_a_backend = img.phase_a_backend;
  row.wall_ms = img.wall_ms;
  // Linux reports ru_maxrss in KiB.
  row.rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  row.summary = img.summary;
  return row;
}

/// A check that finishes within kRepeatBelowMs runs kReps times and its
/// row reports the median wall time and the largest peak RSS: single runs
/// of one check swing by 20-50% on a shared host. Longer checks run once.
constexpr std::size_t kReps = 3;
constexpr double kRepeatBelowMs = 10000.0;

template <typename Checker>
Row run_timed(const Checker& checker, const ssr::verify::CheckOptions& options,
              std::size_t threads, ssr::verify::PhaseBStorage storage) {
  std::vector<Row> runs{run_once(checker, options, threads, storage)};
  while (runs.front().wall_ms < kRepeatBelowMs && runs.size() < kReps) {
    runs.push_back(run_once(checker, options, threads, storage));
  }
  double rss_mib = 0.0;
  for (const Row& r : runs) rss_mib = std::max(rss_mib, r.rss_mib);
  std::sort(runs.begin(), runs.end(), [](const Row& a, const Row& b) {
    return a.wall_ms < b.wall_ms;
  });
  Row median = runs[runs.size() / 2];
  median.rss_mib = rss_mib;
  return median;
}

std::string phase_a_backend(const ssr::verify::CheckReport& r) {
  return r.stats.phase_a_sliced ? r.stats.phase_a_backend
                                : std::string("scalar");
}

unsigned phase_a_lanes(const ssr::verify::CheckReport& r) {
  return r.stats.phase_a_sliced ? r.stats.phase_a_lanes : 1u;
}

/// One row in both tables.
void add_row(ssr::TextTable& table, ssr::TextTable& trajectory,
             const std::string& name, std::size_t n, std::uint32_t K,
             const Row& row, std::size_t threads) {
  const ssr::verify::CheckReport& r = row.report;
  const double peak_mib =
      static_cast<double>(r.stats.measured_peak_bytes) / kMiB;
  table.row()
      .cell(name)
      .cell(n)
      .cell(K)
      .cell(r.total_configs)
      .cell(r.legitimate_configs)
      .cell(threads)
      .cell(ssr::verify::to_string(r.stats.mode))
      .cell(phase_a_backend(r))
      .cell(r.deadlock_free)
      .cell(r.closure_holds)
      .cell(r.token_bounds_hold)
      .cell(r.convergence_holds)
      .cell(r.worst_case_steps)
      .cell(r.min_privileged_anywhere)
      .cell(peak_mib, 1)
      .cell(row.rss_mib, 1)
      .cell(row.wall_ms, 0);
  trajectory.row()
      .cell(name)
      .cell(n)
      .cell(K)
      .cell(r.total_configs)
      .cell(threads)
      .cell(nproc())
      .cell(ssr::verify::to_string(r.stats.mode))
      .cell(row.wall_ms, 1)
      .cell(peak_mib, 2)
      .cell(r.stats.spill_bytes)
      .cell(row.rss_mib, 1)
      .cell(phase_a_backend(r))
      .cell(phase_a_lanes(r));
}

template <typename Checker>
void run_row(ssr::TextTable& table, ssr::TextTable& trajectory,
             const std::string& name, std::size_t n, std::uint32_t K,
             const Checker& checker, ssr::verify::CheckOptions options,
             ssr::verify::PhaseBStorage storage =
                 ssr::verify::PhaseBStorage::kAuto,
             std::vector<std::size_t> threads_list = {}) {
  if (threads_list.empty()) threads_list = thread_counts();
  for (std::size_t threads : threads_list) {
    add_row(table, trajectory, name, n, K,
            run_timed(checker, options, threads, storage), threads);
  }
}

/// The same space in every storage mode: the watch lists rescan only the
/// configurations whose watched successor finalized, csr-free scans every
/// active one behind a smaller watch table, and the spill tier keeps the
/// least resident by streaming move records through disk. Runs the space
/// at the given thread counts and prints the peaks and the wall-time
/// ratio.
template <typename Checker>
void run_mode_comparison(ssr::TextTable& table, ssr::TextTable& trajectory,
                         const std::string& name, std::size_t n,
                         std::uint32_t K, const Checker& checker,
                         ssr::verify::CheckOptions options,
                         const std::vector<std::size_t>& threads_list) {
  using ssr::verify::PhaseBStorage;
  for (std::size_t threads : threads_list) {
    const Row lists =
        run_timed(checker, options, threads, PhaseBStorage::kWatchLists);
    const Row csrfree =
        run_timed(checker, options, threads, PhaseBStorage::kCsrFree);
    const Row spill =
        run_timed(checker, options, threads, PhaseBStorage::kSpill);
    for (const Row* row : {&lists, &csrfree, &spill}) {
      add_row(table, trajectory, name, n, K, *row, threads);
    }
    char line[320];
    std::snprintf(line, sizeof(line),
                  "mode comparison %s(%zu,%u) threads=%zu: watch-lists peak "
                  "= %.1f MiB, wall csr-free/watch-lists = %.2fx, csr-free "
                  "peak = %.1f MiB, spill peak = %.1f MiB (+%.1f MiB on "
                  "disk, read-amp %.2fx)\n",
                  name.c_str(), n, K, threads,
                  static_cast<double>(lists.report.stats.measured_peak_bytes) /
                      kMiB,
                  csrfree.wall_ms / lists.wall_ms,
                  static_cast<double>(
                      csrfree.report.stats.measured_peak_bytes) /
                      kMiB,
                  static_cast<double>(spill.report.stats.measured_peak_bytes) /
                      kMiB,
                  static_cast<double>(spill.report.stats.spill_bytes) / kMiB,
                  spill.report.stats.read_amplification);
    std::cout << line;
  }
}

/// Same space, same answers, two Phase A engines: the sliced sweep must
/// reproduce the scalar odometer's report bit-for-bit while finishing
/// sooner. Prints the wall-time ratio alongside the two rows.
template <typename Checker>
void run_phase_a_comparison(ssr::TextTable& table, ssr::TextTable& trajectory,
                            const std::string& name, std::size_t n,
                            std::uint32_t K, const Checker& checker,
                            ssr::verify::CheckOptions options,
                            std::size_t threads) {
  using ssr::verify::PhaseAMode;
  auto scalar_options = options;
  scalar_options.phase_a = PhaseAMode::kScalar;
  auto sliced_options = options;
  sliced_options.phase_a = PhaseAMode::kSliced;
  const Row scalar = run_timed(checker, scalar_options, threads,
                               ssr::verify::PhaseBStorage::kAuto);
  const Row sliced = run_timed(checker, sliced_options, threads,
                               ssr::verify::PhaseBStorage::kAuto);
  for (const Row* row : {&scalar, &sliced}) {
    add_row(table, trajectory, name, n, K, *row, threads);
  }
  const bool identical = scalar.summary == sliced.summary;
  char line[256];
  std::snprintf(line, sizeof(line),
                "phase A comparison %s(%zu,%u) threads=%zu: wall "
                "scalar/sliced(%s) = %.1fx, reports %s\n",
                name.c_str(), n, K, threads,
                sliced.report.stats.phase_a_backend.c_str(),
                scalar.wall_ms / sliced.wall_ms,
                identical ? "identical" : "DIVERGED");
  std::cout << line;
}

int run_smoke() {
  using namespace ssr;
  std::cout << "bench_modelcheck --smoke: storage-mode sanity pass\n";
  verify::CheckOptions ssr_options;
  verify::CheckOptions dij_options;
  dij_options.min_privileged = 1;
  dij_options.max_privileged = 1;
  int failures = 0;
  for (verify::PhaseBStorage storage :
       {verify::PhaseBStorage::kWatchLists, verify::PhaseBStorage::kCsrFree,
        verify::PhaseBStorage::kSpill}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      const Row ssrmin = run_once(verify::make_ssrmin_checker(3, 4),
                                  ssr_options, threads, storage);
      const Row dijkstra = run_once(verify::make_kstate_checker(3, 4),
                                    dij_options, threads, storage);
      // The same spaces again with the scalar odometer sweep: every field
      // of both reports must come out bit-identical to the sliced runs.
      auto scalar_ssr = ssr_options;
      scalar_ssr.phase_a = verify::PhaseAMode::kScalar;
      auto scalar_dij = dij_options;
      scalar_dij.phase_a = verify::PhaseAMode::kScalar;
      const Row ssrmin_scalar = run_once(verify::make_ssrmin_checker(3, 4),
                                         scalar_ssr, threads, storage);
      const Row dijkstra_scalar = run_once(verify::make_kstate_checker(3, 4),
                                           scalar_dij, threads, storage);
      bool ok = ssrmin.report.all_ok() &&
                ssrmin.report.worst_case_steps == 16 &&
                dijkstra.report.all_ok() &&
                ssrmin.summary == ssrmin_scalar.summary &&
                dijkstra.summary == dijkstra_scalar.summary;
      if (storage == verify::PhaseBStorage::kSpill &&
          (ssrmin.report.stats.spill_bytes == 0 ||
           ssrmin.report.stats.mode != verify::PhaseBStorage::kSpill)) {
        ok = false;
      }
      if (!ok) ++failures;
      std::cout << "  storage=" << verify::to_string(storage)
                << " threads=" << threads
                << " phase_a=" << phase_a_backend(ssrmin.report)
                << " rss=" << ssrmin.rss_mib << "MiB"
                << " vs scalar: " << (ok ? "ok" : "FAILED") << '\n';
    }
  }
  // A forced-spill kAuto cell: squeeze the budget between the spill
  // mode's resident projection and the cheapest in-RAM projection and
  // the auto-picker must go out of core — with the same answers.
  {
    const auto checker = verify::make_ssrmin_checker(4, 5);
    const std::uint64_t total = checker.codec().total();
    const std::uint64_t radix = checker.codec().radix();
    auto options = ssr_options;
    options.memory_budget_bytes =
        (verify::projected_spill_resident_bytes(total, 4, radix) +
         verify::projected_csrfree_bytes(total, 4, radix)) /
        2;
    const Row forced =
        run_once(checker, options, 2, verify::PhaseBStorage::kAuto);
    const Row baseline = run_once(checker, ssr_options, 2,
                                  verify::PhaseBStorage::kWatchLists);
    const bool ok =
        forced.report.stats.mode == verify::PhaseBStorage::kSpill &&
        forced.report.stats.spill_bytes > 0 &&
        forced.summary == baseline.summary;
    if (!ok) ++failures;
    std::cout << "  auto-under-tight-budget: mode="
              << verify::to_string(forced.report.stats.mode)
              << " spill_bytes=" << forced.report.stats.spill_bytes
              << " rss=" << forced.rss_mib << "MiB"
              << " vs watch-lists: " << (ok ? "ok" : "FAILED") << '\n';
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ssr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }
  bench::print_header(
      "E3: exhaustive model checking", "Lemmas 1, 2, 4, 6; Theorems 1-2",
      "over the complete configuration space, SSRmin is deadlock-free, "
      "closed on Lambda, keeps 1..2 privileged processes there, always has "
      ">= 1 privileged process anywhere, and every execution converges");

  TextTable table({"protocol", "n", "K", "configs", "legit", "threads",
                   "mode", "phaseA", "no-deadlock", "closure", "tokens[1,2]",
                   "convergence", "worst steps", "min priv anywhere",
                   "peakMiB", "rssMiB", "ms"});
  TextTable trajectory({"protocol", "n", "K", "configs", "threads", "nproc",
                        "mode", "wall_ms", "peak_mib", "spill_bytes",
                        "rss_mib", "backend", "lanes"});

  verify::CheckOptions ssr_options;  // defaults: privileged in [1,2]
  run_row(table, trajectory, "ssrmin", 3, 4, verify::make_ssrmin_checker(3, 4),
          ssr_options);
  run_row(table, trajectory, "ssrmin", 3, 5, verify::make_ssrmin_checker(3, 5),
          ssr_options);
  run_row(table, trajectory, "ssrmin", 3, 6, verify::make_ssrmin_checker(3, 6),
          ssr_options);
  run_row(table, trajectory, "ssrmin", 4, 5, verify::make_ssrmin_checker(4, 5),
          ssr_options);
  // 331k configurations: full-mode-only before the sharded sweep, now a
  // default row — run scalar-vs-sliced so the Phase A speedup and the
  // report identity are pinned in the output, then the sliced check at
  // every hardware thread.
  run_phase_a_comparison(table, trajectory, "ssrmin", 4, 6,
                         verify::make_ssrmin_checker(4, 6), ssr_options, 1);
  if (nproc() > 1) {
    run_row(table, trajectory, "ssrmin", 4, 6,
            verify::make_ssrmin_checker(4, 6), ssr_options,
            verify::PhaseBStorage::kAuto, {nproc()});
  }
  // The same 331k-config space forced out of core: Phase B streams its
  // move records through a temp file, so the default run always carries
  // at least one mode=spill row (pinned by tools/check_bench_json.py).
  run_row(table, trajectory, "ssrmin", 4, 6, verify::make_ssrmin_checker(4, 6),
          ssr_options, verify::PhaseBStorage::kSpill, {1});
  if (bench::full_mode()) {
    run_row(table, trajectory, "ssrmin", 4, 7,
            verify::make_ssrmin_checker(4, 7), ssr_options);
    // The big one: 24^5 ≈ 8M configurations, every distributed-daemon
    // subset choice — run in all three storage modes at 1 and 2 workers
    // so their peaks sit side by side in the output.
    run_mode_comparison(table, trajectory, "ssrmin", 5, 6,
                        verify::make_ssrmin_checker(5, 6), ssr_options,
                        {1, 2});
  }

  verify::CheckOptions dij_options;
  dij_options.min_privileged = 1;
  dij_options.max_privileged = 1;
  run_row(table, trajectory, "dijkstra", 3, 4,
          verify::make_kstate_checker(3, 4), dij_options);
  run_row(table, trajectory, "dijkstra", 4, 5,
          verify::make_kstate_checker(4, 5), dij_options);
  run_row(table, trajectory, "dijkstra", 5, 6,
          verify::make_kstate_checker(5, 6), dij_options);
  run_row(table, trajectory, "dijkstra", 6, 7,
          verify::make_kstate_checker(6, 7), dij_options);
  // 8^7 ≈ 2M configurations — previously full-mode-only territory; also
  // the scalar-vs-sliced Phase A pin for the Dijkstra kernel.
  run_phase_a_comparison(table, trajectory, "dijkstra", 7, 8,
                         verify::make_kstate_checker(7, 8), dij_options, 1);
  if (nproc() > 1) {
    run_row(table, trajectory, "dijkstra", 7, 8,
            verify::make_kstate_checker(7, 8), dij_options,
            verify::PhaseBStorage::kAuto, {nproc()});
  }
  run_row(table, trajectory, "dijkstra", 6, 7,
          verify::make_kstate_checker(6, 7), dij_options,
          verify::PhaseBStorage::kSpill, {1});
  if (bench::full_mode()) {
    run_row(table, trajectory, "dijkstra", 8, 9,
            verify::make_kstate_checker(8, 9), dij_options);
    // The Hoepman K = N boundary at a size an explicit CSR could still hold...
    run_row(table, trajectory, "dijkstra", 8, 8,
            verify::make_kstate_checker(8, 8), dij_options);
    // ...and one it could not: 9^9 ≈ 387M configurations with ~69G
    // daemon-subset edges. An explicit predecessor CSR would need ~0.5TiB;
    // the slim backends fit in a few GiB.
    run_row(table, trajectory, "dijkstra", 9, 9,
            verify::make_kstate_checker(9, 9), dij_options);
  }

  // The out-of-core headline: ssrmin(6,7) = 28^6 ≈ 482M configurations
  // under a 2.5 GiB budget that no in-RAM mode fits (watch lists project
  // ≈ 4.7 GiB, csr-free ≈ 2.9 GiB), so kAuto must take the spill tier —
  // ≈ 2.5 GiB of move records stream through the temp file while ≈ 2 GiB
  // stay resident. Gated on its own env knob besides full mode because
  // the run takes about 20 minutes single-core.
  if (bench::full_mode() ||
      std::getenv("SSRING_BENCH_SPILL_BIG") != nullptr) {
    verify::CheckOptions spill_options = ssr_options;
    spill_options.memory_budget_bytes = std::uint64_t{5} << 29;  // 2.5 GiB
    run_row(table, trajectory, "ssrmin", 6, 7,
            verify::make_ssrmin_checker(6, 7), spill_options,
            verify::PhaseBStorage::kAuto, {1});
  }

  std::cout << table.render() << '\n';
  bench::maybe_export(table, "modelcheck");
  {
    std::ofstream json("BENCH_modelcheck.json");
    json << trajectory.to_json(2) << '\n';
  }
  std::cout << "(wrote BENCH_modelcheck.json)\n";
  std::cout << "paper expectation: every boolean column 'yes'; legit = 3nK "
               "(SSRmin, Def. 1) / nK (Dijkstra); worst steps grow ~ n^2 "
               "(Theorem 2; Dijkstra bound 3n(n-1)/2 per [1]).\n";
  if (!bench::full_mode()) {
    std::cout << "(set SSRING_BENCH_FULL=1 for the larger spaces, "
                 "SSRING_BENCH_SPILL_BIG=1 for the out-of-core "
                 "ssrmin(6,7) row)\n";
  }
  std::cout << "scope note: dijkstra(10,10) = 10^10 configurations is out "
               "of reach for this single-host checker in any mode — the "
               "spill tier's resident offset index alone projects ~42 GiB "
               "and the stream ~77 GiB; it needs sharding across hosts.\n";
  return 0;
}
