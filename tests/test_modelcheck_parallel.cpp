// The parallel checker's contract: CheckReport is bit-identical at every
// thread count AND in every Phase B storage mode — same witnesses, same
// worst case, same height table. The differential tests below pin that by
// running every covered (n, K) in all three storage backends (watch
// lists, CSR-free, disk-spilled records) at 1, 2 and 8 workers (1
// exercises the solo fast path, the others the shared atomic list pushes
// and wake bits), and pin the heights themselves against a test-local
// fixpoint over the checker's successor relation. A ring below Hoepman's
// bound covers the non-convergent exit, and the move table the peels
// share is held against the State path. Unit tests for the underlying
// ThreadPool come first.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dijkstra/kstate.hpp"
#include "stabilizing/protocol.hpp"
#include "util/thread_pool.hpp"
#include "verify/checkers.hpp"

namespace {

using namespace ssr;

TEST(ThreadPool, SizeIsAtLeastOne) {
  util::ThreadPool solo(1);
  EXPECT_EQ(solo.size(), 1u);
  util::ThreadPool four(4);
  EXPECT_EQ(four.size(), 4u);
  util::ThreadPool hw(0);
  EXPECT_GE(hw.size(), 1u);
}

TEST(ThreadPool, RunOnAllVisitsEveryWorkerOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(pool.size());
  pool.run_on_all([&](std::size_t id) { ++visits[id]; });
  for (std::size_t id = 0; id < pool.size(); ++id) {
    EXPECT_EQ(visits[id].load(), 1) << "worker " << id;
  }
}

TEST(ThreadPool, ForChunksCoversRangeExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    util::ThreadPool pool(threads);
    constexpr std::uint64_t kBegin = 7, kEnd = 1234;
    std::vector<std::atomic<int>> hits(kEnd);
    pool.for_chunks(kBegin, kEnd, 17,
                    [&](std::size_t, std::uint64_t lo, std::uint64_t hi) {
                      ASSERT_LE(lo, hi);
                      ASSERT_LE(hi, kEnd);
                      for (std::uint64_t i = lo; i < hi; ++i) ++hits[i];
                    });
    for (std::uint64_t i = 0; i < kEnd; ++i) {
      EXPECT_EQ(hits[i].load(), i >= kBegin ? 1 : 0) << "index " << i;
    }
  }
}

TEST(ThreadPool, ForChunksEmptyRangeIsNoop) {
  util::ThreadPool pool(2);
  bool called = false;
  pool.for_chunks(5, 5, 8, [&](std::size_t, std::uint64_t, std::uint64_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool pool(threads);
    EXPECT_THROW(pool.run_on_all([&](std::size_t) {
      throw std::runtime_error("boom");
    }),
                 std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<std::uint64_t> sum{0};
    pool.for_chunks(0, 100, 9,
                    [&](std::size_t, std::uint64_t lo, std::uint64_t hi) {
                      for (std::uint64_t i = lo; i < hi; ++i) sum += i;
                    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

// --- differential report tests --------------------------------------------

void expect_identical(const verify::CheckReport& a,
                      const verify::CheckReport& b, const char* what) {
  EXPECT_EQ(a.total_configs, b.total_configs) << what;
  EXPECT_EQ(a.legitimate_configs, b.legitimate_configs) << what;
  EXPECT_EQ(a.deadlock_free, b.deadlock_free) << what;
  EXPECT_EQ(a.deadlock_witness, b.deadlock_witness) << what;
  EXPECT_EQ(a.closure_holds, b.closure_holds) << what;
  EXPECT_EQ(a.closure_witness, b.closure_witness) << what;
  EXPECT_EQ(a.token_bounds_hold, b.token_bounds_hold) << what;
  EXPECT_EQ(a.token_witness, b.token_witness) << what;
  EXPECT_EQ(a.convergence_holds, b.convergence_holds) << what;
  EXPECT_EQ(a.cycle_witness, b.cycle_witness) << what;
  EXPECT_EQ(a.worst_case_steps, b.worst_case_steps) << what;
  EXPECT_EQ(a.worst_case_witness, b.worst_case_witness) << what;
  EXPECT_EQ(a.min_privileged_anywhere, b.min_privileged_anywhere) << what;
  EXPECT_EQ(a.heights, b.heights) << what;
}

/// Phase B's answer computed independently of every storage backend: the
/// height of a configuration is 0 on Lambda and for deadlocked
/// configurations, else 1 + the largest successor height, found by a
/// plain fixpoint over checker.successor_codes(). A configuration the
/// fixpoint never settles can reach an illegitimate cycle.
struct ReferenceHeights {
  bool converges = true;
  std::vector<std::uint32_t> height;
  std::uint64_t worst = 0;
  std::optional<std::uint64_t> worst_at;
};

template <typename Checker>
ReferenceHeights reference_heights(const Checker& checker) {
  constexpr std::uint32_t kOpen = UINT32_MAX;
  const std::uint64_t total = checker.codec().total();
  std::vector<std::vector<std::uint64_t>> succs(total);
  ReferenceHeights ref;
  ref.height.assign(total, 0);
  for (std::uint64_t c = 0; c < total; ++c) {
    const auto config = checker.codec().decode(c);
    if (checker.legitimate(config)) continue;
    succs[c] = checker.successor_codes(config);
    if (!succs[c].empty()) ref.height[c] = kOpen;
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::uint64_t c = 0; c < total; ++c) {
      if (ref.height[c] != kOpen) continue;
      std::uint32_t h = 0;
      bool settled = true;
      for (const std::uint64_t s : succs[c]) {
        if (ref.height[s] == kOpen) {
          settled = false;
          break;
        }
        h = std::max(h, ref.height[s] + 1);
      }
      if (settled) {
        ref.height[c] = h;
        changed = true;
      }
    }
  }
  for (std::uint64_t c = 0; c < total; ++c) {
    if (ref.height[c] == kOpen) ref.converges = false;
    if (ref.height[c] > ref.worst) {
      ref.worst = ref.height[c];
      ref.worst_at = c;
    }
  }
  return ref;
}

/// Runs @p checker in every storage mode at 1, 2 and 8 workers against a
/// watch-list one-worker baseline, whose heights are first pinned to the
/// reference fixpoint (skipped for the big spaces, whose successor lists
/// would not fit in a test's memory).
template <typename Checker>
void check_thread_invariance(const Checker& checker,
                             verify::CheckOptions options, const char* what,
                             bool against_reference = true) {
  options.keep_heights = true;
  options.threads = 1;
  options.storage = verify::PhaseBStorage::kWatchLists;
  const verify::CheckReport baseline = checker.run(options);
  EXPECT_TRUE(baseline.all_ok()) << what;
  EXPECT_FALSE(baseline.heights.empty()) << what;
  if (against_reference) {
    const ReferenceHeights ref = reference_heights(checker);
    EXPECT_TRUE(ref.converges) << what;
    EXPECT_EQ(baseline.worst_case_steps, ref.worst) << what;
    EXPECT_EQ(baseline.worst_case_witness, ref.worst_at) << what;
    ASSERT_EQ(baseline.heights.size(), ref.height.size()) << what;
    for (std::uint64_t c = 0; c < ref.height.size(); ++c) {
      ASSERT_EQ(baseline.heights[c], ref.height[c]) << what << " config " << c;
    }
  }
  for (verify::PhaseBStorage storage : {verify::PhaseBStorage::kWatchLists,
                                        verify::PhaseBStorage::kCsrFree,
                                        verify::PhaseBStorage::kSpill}) {
    options.storage = storage;
    // The peel's visit counts are functions of the mode and the space.
    // The watch lists rescan a configuration exactly when csr-free's watch
    // probe fails, so the two agree wherever no rule preserves its state
    // (true of both library protocols); spill visits every active
    // configuration each round.
    std::optional<verify::CheckStats> counts;
    if (storage != verify::PhaseBStorage::kSpill) counts = baseline.stats;
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      if (storage == verify::PhaseBStorage::kWatchLists && threads == 1) {
        continue;  // the baseline itself
      }
      options.threads = threads;
      const verify::CheckReport got = checker.run(options);
      std::string label = std::string(what) + " storage=" +
                          verify::to_string(storage) +
                          " threads=" + std::to_string(threads);
      expect_identical(baseline, got, label.c_str());
      EXPECT_EQ(got.stats.mode, storage) << label;
      if (!counts) counts = got.stats;
      EXPECT_EQ(got.stats.rescans, counts->rescans) << label;
      EXPECT_EQ(got.stats.probes, counts->probes) << label;
      if (storage == verify::PhaseBStorage::kSpill) {
        EXPECT_GT(got.stats.spill_bytes, 0u) << label;
        EXPECT_GT(got.stats.blocks_read, 0u) << label;
        EXPECT_GE(got.stats.read_amplification, 1.0) << label;
      }
    }
  }
}

TEST(ModelCheckParallel, SsrMinReportsAreThreadCountInvariant) {
  verify::CheckOptions options;  // defaults: privileged in [1, 2]
  check_thread_invariance(verify::make_ssrmin_checker(3, 4), options,
                          "ssrmin(3,4)");
  check_thread_invariance(verify::make_ssrmin_checker(3, 6), options,
                          "ssrmin(3,6)");
  check_thread_invariance(verify::make_ssrmin_checker(4, 5), options,
                          "ssrmin(4,5)");
}

TEST(ModelCheckParallel, DijkstraReportsAreThreadCountInvariant) {
  verify::CheckOptions options;
  options.min_privileged = 1;
  options.max_privileged = 1;
  check_thread_invariance(verify::make_kstate_checker(3, 4), options,
                          "dijkstra(3,4)");
  check_thread_invariance(verify::make_kstate_checker(4, 5), options,
                          "dijkstra(4,5)");
  check_thread_invariance(verify::make_kstate_checker(5, 6), options,
                          "dijkstra(5,6)");
}

TEST(ModelCheckParallel, BigSpacesAreModeAndThreadInvariant) {
  // The acceptance-sized differential: ssrmin(5,6) (8M configs),
  // dijkstra(6,7) and dijkstra(8,9) (43M configs) in every storage mode
  // at 1/2/8 workers, heights included. Gated behind SSRING_TEST_BIG=1
  // because the 27 full checks take tens of minutes on modest hardware.
  if (std::getenv("SSRING_TEST_BIG") == nullptr) {
    GTEST_SKIP() << "set SSRING_TEST_BIG=1 to run the large differential";
  }
  verify::CheckOptions ssr_options;
  check_thread_invariance(verify::make_ssrmin_checker(5, 6), ssr_options,
                          "ssrmin(5,6)", false);
  verify::CheckOptions dij_options;
  dij_options.min_privileged = 1;
  dij_options.max_privileged = 1;
  check_thread_invariance(verify::make_kstate_checker(6, 7), dij_options,
                          "dijkstra(6,7)", false);
  check_thread_invariance(verify::make_kstate_checker(8, 9), dij_options,
                          "dijkstra(8,9)", false);
}

TEST(ModelCheckParallel, AutoSpillsUnderTightBudgetAndMatchesInRam) {
  // The auto-picker's out-of-core tier, in the default suite: a budget
  // squeezed between the spill mode's resident projection and the
  // csr-free projection (the cheapest in-RAM mode) must make kAuto spill
  // — and the spilled report must match an unconstrained watch-list run
  // bit-for-bit. The budget arrives via SSRING_CHECK_MEMORY_BUDGET, so
  // the env path of the default-budget resolution is on the hook too.
  const auto checker = verify::make_ssrmin_checker(4, 5);
  const std::uint64_t total = checker.codec().total();
  const std::uint64_t proj_spill = verify::projected_spill_resident_bytes(
      total, 4, checker.codec().radix());
  const std::uint64_t proj_free =
      verify::projected_csrfree_bytes(total, 4, checker.codec().radix());
  ASSERT_LT(proj_spill, proj_free)
      << "watch-free spill must undercut csr-free or auto can never spill";
  const std::uint64_t budget = (proj_spill + proj_free) / 2;

  verify::CheckOptions options;
  options.keep_heights = true;
  options.threads = 2;
  const verify::CheckReport in_ram = checker.run(options);
  EXPECT_EQ(in_ram.stats.mode, verify::PhaseBStorage::kWatchLists);

  ASSERT_EQ(setenv("SSRING_CHECK_MEMORY_BUDGET",
                   std::to_string(budget).c_str(), 1),
            0);
  const verify::CheckReport spilled = checker.run(options);
  ASSERT_EQ(unsetenv("SSRING_CHECK_MEMORY_BUDGET"), 0);

  EXPECT_EQ(spilled.stats.mode, verify::PhaseBStorage::kSpill);
  EXPECT_EQ(spilled.stats.memory_budget_bytes, budget);
  EXPECT_GT(spilled.stats.spill_bytes, 0u);
  EXPECT_LE(spilled.stats.measured_peak_bytes,
            spilled.stats.projected_peak_bytes);
  expect_identical(in_ram, spilled, "ssrmin(4,5) forced spill");
}

TEST(ModelCheckParallel, DefaultThreadsMatchesSequential) {
  const auto checker = verify::make_ssrmin_checker(3, 5);
  verify::CheckOptions options;
  options.keep_heights = true;
  options.threads = 1;
  const verify::CheckReport sequential = checker.run(options);
  options.threads = 0;  // one worker per hardware thread
  expect_identical(sequential, checker.run(options), "ssrmin(3,5) hw");
}

// --- sliced Phase A vs the scalar odometer sweep ---------------------------

/// The sliced Phase A contract: against a scalar-sweep baseline, the
/// bit-sliced A1/A2 must reproduce the report bit-for-bit — same witnesses
/// (lowest-index, so lane masking and chunk order are on the hook), same
/// counts, same heights — at every thread count and in every Phase B
/// storage mode.
template <typename Checker>
void check_phase_a_invariance(const Checker& checker,
                              verify::CheckOptions options, const char* what) {
  ASSERT_TRUE(checker.has_phase_a_slices()) << what;
  options.keep_heights = true;
  options.threads = 1;
  options.phase_a = verify::PhaseAMode::kScalar;
  const verify::CheckReport baseline = checker.run(options);
  EXPECT_TRUE(baseline.all_ok()) << what;
  EXPECT_FALSE(baseline.stats.phase_a_sliced) << what;
  options.phase_a = verify::PhaseAMode::kSliced;
  for (verify::PhaseBStorage storage : {verify::PhaseBStorage::kWatchLists,
                                        verify::PhaseBStorage::kCsrFree,
                                        verify::PhaseBStorage::kSpill}) {
    options.storage = storage;
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      options.threads = threads;
      const verify::CheckReport got = checker.run(options);
      std::string label = std::string(what) + " sliced storage=" +
                          verify::to_string(storage) +
                          " threads=" + std::to_string(threads);
      expect_identical(baseline, got, label.c_str());
      EXPECT_TRUE(got.stats.phase_a_sliced) << label;
      EXPECT_GE(got.stats.phase_a_lanes, 64u) << label;
      EXPECT_FALSE(got.stats.phase_a_backend.empty()) << label;
    }
  }
}

TEST(ModelCheckSlicedPhaseA, SsrMinMatchesScalarSweep) {
  verify::CheckOptions options;  // defaults: privileged in [1, 2]
  // K = 4: the dense state radix 4K = 16 is a power of two, so the
  // odometer fill rides the digit carry-out wrap path.
  check_phase_a_invariance(verify::make_ssrmin_checker(3, 4), options,
                           "ssrmin(3,4)");
  check_phase_a_invariance(verify::make_ssrmin_checker(3, 5), options,
                           "ssrmin(3,5)");
  check_phase_a_invariance(verify::make_ssrmin_checker(4, 5), options,
                           "ssrmin(4,5)");
}

TEST(ModelCheckSlicedPhaseA, DijkstraMatchesScalarSweep) {
  verify::CheckOptions options;
  options.min_privileged = 1;
  options.max_privileged = 1;
  check_phase_a_invariance(verify::make_kstate_checker(3, 4), options,
                           "dijkstra(3,4)");
  // K = 2^d wrap; 4^4 = 256 configs keeps every chunk partially filled.
  check_phase_a_invariance(verify::make_kstate_checker(4, 4), options,
                           "dijkstra(4,4)");
  check_phase_a_invariance(verify::make_kstate_checker(5, 6), options,
                           "dijkstra(5,6)");
}

TEST(ModelCheckSlicedPhaseA, AutoModeUsesSlicesAndMatchesScalar) {
  // kAuto (the default) must pick the sliced path on the library-made
  // checkers and still answer identically to a forced-scalar run.
  const auto checker = verify::make_ssrmin_checker(3, 6);
  verify::CheckOptions options;
  options.keep_heights = true;
  options.threads = 2;
  const verify::CheckReport auto_run = checker.run(options);
  EXPECT_TRUE(auto_run.stats.phase_a_sliced);
  options.phase_a = verify::PhaseAMode::kScalar;
  const verify::CheckReport scalar_run = checker.run(options);
  EXPECT_FALSE(scalar_run.stats.phase_a_sliced);
  expect_identical(scalar_run, auto_run, "ssrmin(3,6) auto vs scalar");
}

// --- a ring that does not converge ------------------------------------------

/// Dijkstra's K-state rule at K = n - 1, below Hoepman's K = n bound, which
/// dijkstra::KStateRing rejects: from some configurations the daemon can
/// avoid Lambda forever.
struct SubBoundKStateRing {
  using State = dijkstra::KStateLocal;
  std::size_t n;
  std::uint32_t K;

  std::size_t size() const { return n; }
  int enabled_rule(std::size_t i, const State& self, const State& pred,
                   const State& /*succ*/) const {
    return dijkstra::kstate_guard(i, self.x, pred.x) ? 1 : stab::kDisabled;
  }
  State apply(std::size_t i, int /*rule*/, const State& /*self*/,
              const State& pred, const State& /*succ*/) const {
    return State{dijkstra::kstate_command(i, pred.x, K)};
  }
};

/// A checker with its own predicates (so Phase A runs scalar): paper
/// §2.3 legitimacy — (x, ..., x) or (x+1, ..., x+1, x, ..., x) — and the
/// token count as the privilege.
verify::ModelChecker<SubBoundKStateRing> make_sub_bound_checker(
    std::size_t n) {
  using Local = dijkstra::KStateLocal;
  using Config = std::vector<Local>;
  const auto K = static_cast<std::uint32_t>(n - 1);
  verify::ConfigCodec<Local> codec(
      n, K, [](const Local& s) { return s.x; },
      [](std::uint32_t d) { return Local{d}; });
  auto legit = [K](const Config& c) {
    const std::size_t size = c.size();
    const std::uint32_t x = c[size - 1].x;
    std::size_t l = 0;
    while (l < size && c[l].x == (x + 1) % K) ++l;
    if (l == size) return false;
    for (std::size_t i = l; i < size; ++i) {
      if (c[i].x != x) return false;
    }
    return true;
  };
  auto privileged = [](const Config& c) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const std::size_t pred = stab::pred_index(i, c.size());
      if (dijkstra::kstate_guard(i, c[i].x, c[pred].x)) ++count;
    }
    return count;
  };
  return verify::ModelChecker<SubBoundKStateRing>(
      SubBoundKStateRing{n, K}, std::move(codec), legit, privileged);
}

TEST(ModelCheckParallel, NonConvergentRingNamesTheLowestCycleWitness) {
  // The stall exit: a round that finalizes nothing leaves exactly the
  // configurations the reference fixpoint never settles, and the cycle
  // witness is the lowest of them — in every mode, at every thread count.
  struct Case {
    std::size_t n;
    std::uint64_t unsettled;
    std::uint64_t lowest;
  };
  for (const Case& k : {Case{4, 3, 15}, Case{5, 4, 108}}) {
    const auto checker = make_sub_bound_checker(k.n);
    const std::string what = "dijkstra(" + std::to_string(k.n) + "," +
                             std::to_string(k.n - 1) + ")";
    const ReferenceHeights ref = reference_heights(checker);
    EXPECT_FALSE(ref.converges) << what;
    std::vector<std::uint64_t> open;
    for (std::uint64_t c = 0; c < ref.height.size(); ++c) {
      if (ref.height[c] == UINT32_MAX) open.push_back(c);
    }
    ASSERT_EQ(open.size(), k.unsettled) << what;
    EXPECT_EQ(open.front(), k.lowest) << what;

    verify::CheckOptions options;
    options.min_privileged = 1;
    options.max_privileged = 1;
    options.keep_heights = true;
    options.threads = 1;
    options.storage = verify::PhaseBStorage::kWatchLists;
    const verify::CheckReport baseline = checker.run(options);
    EXPECT_FALSE(baseline.stats.phase_a_sliced) << what;
    EXPECT_TRUE(baseline.deadlock_free) << what;
    EXPECT_TRUE(baseline.closure_holds) << what;
    EXPECT_TRUE(baseline.token_bounds_hold) << what;
    EXPECT_FALSE(baseline.convergence_holds) << what;
    EXPECT_EQ(baseline.cycle_witness, std::optional<std::uint64_t>(k.lowest))
        << what;
    EXPECT_EQ(baseline.worst_case_steps, 0u) << what;
    EXPECT_TRUE(baseline.heights.empty()) << what;
    EXPECT_GT(baseline.stats.rounds, 0u) << what;
    for (verify::PhaseBStorage storage : {verify::PhaseBStorage::kWatchLists,
                                          verify::PhaseBStorage::kCsrFree,
                                          verify::PhaseBStorage::kSpill}) {
      options.storage = storage;
      for (std::size_t threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        options.threads = threads;
        const verify::CheckReport got = checker.run(options);
        const std::string label = what + " storage=" +
                                  verify::to_string(storage) +
                                  " threads=" + std::to_string(threads);
        expect_identical(baseline, got, label.c_str());
        EXPECT_EQ(got.stats.rounds, baseline.stats.rounds) << label;
      }
    }
  }
}

// --- the move table against the State path ---------------------------------

/// On every configuration: the table's digits agree with the codec (by
/// direct decode and by stepping), its enabled mask with the protocol's
/// guards, and the subset sums of its deltas with successor_codes().
/// Pins the neighbour order, the i = 0 rules and the digit weights.
template <typename Checker>
void check_move_table(const Checker& checker, const char* what) {
  const verify::MoveTable table = checker.move_table();
  const auto& codec = checker.codec();
  const std::size_t n = codec.ring_size();
  std::vector<std::uint32_t> digits(n), stepped(n);
  std::vector<std::int64_t> deltas(n), sums;
  table.decode(0, stepped.data());
  for (std::uint64_t c = 0; c < codec.total();
       ++c, table.advance(stepped.data())) {
    const auto config = codec.decode(c);
    table.decode(c, digits.data());
    ASSERT_EQ(digits, stepped) << what << " config " << c;
    std::uint32_t want_mask = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(digits[i], codec.encode_digit(config[i]))
          << what << " config " << c;
      if (checker.protocol().enabled_rule(
              i, config[i], config[stab::pred_index(i, n)],
              config[stab::succ_index(i, n)]) != stab::kDisabled) {
        want_mask |= std::uint32_t{1} << i;
      }
    }
    const std::uint32_t mask = table.moves(digits.data(), deltas.data());
    ASSERT_EQ(mask, want_mask) << what << " config " << c;
    std::vector<std::uint64_t> succs;
    verify::find_successor(c, deltas.data(),
                           static_cast<std::size_t>(std::popcount(mask)), sums,
                           [&](std::uint64_t sc) {
                             succs.push_back(sc);
                             return false;
                           });
    std::sort(succs.begin(), succs.end());
    succs.erase(std::unique(succs.begin(), succs.end()), succs.end());
    ASSERT_EQ(succs, checker.successor_codes(config))
        << what << " config " << c;
  }
}

TEST(MoveTable, MatchesTheStatePathOnEveryConfiguration) {
  check_move_table(verify::make_ssrmin_checker(3, 4), "ssrmin(3,4)");
  check_move_table(verify::make_ssrmin_checker(4, 5), "ssrmin(4,5)");
  check_move_table(verify::make_kstate_checker(4, 5), "dijkstra(4,5)");
  check_move_table(make_sub_bound_checker(4), "dijkstra(4,3)");
  check_move_table(make_sub_bound_checker(5), "dijkstra(5,4)");
}

TEST(MoveTable, DecodesCodesAbove32Bits) {
  // 24^8 > 2^32: the high digits take the division path, the low ones the
  // multiply-only one.
  std::vector<std::uint64_t> weights;
  for (std::uint64_t w = 1, i = 0; i < 8; ++i, w *= 24) weights.push_back(w);
  const verify::MoveTable table(
      8, 24, weights,
      [](std::size_t, std::uint32_t, std::uint32_t, std::uint32_t) {
        return std::uint32_t{verify::MoveTable::kDisabled};
      });
  std::vector<std::uint32_t> digits(8);
  for (std::uint64_t c : {std::uint64_t{0}, std::uint64_t{UINT32_MAX},
                          std::uint64_t{UINT32_MAX} + 1,
                          std::uint64_t{110075314175},  // 24^8 - 1
                          std::uint64_t{98765432109}}) {
    table.decode(c, digits.data());
    std::uint64_t rest = c;
    for (std::size_t i = 0; i < 8; ++i, rest /= 24) {
      EXPECT_EQ(digits[i], rest % 24) << "code " << c << " digit " << i;
    }
  }
}

}  // namespace
