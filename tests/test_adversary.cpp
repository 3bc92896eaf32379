// Cross-validation of the model checker's worst-case figure: replaying
// the height-greedy adversary must realize exactly the predicted number
// of steps, decreasing the potential by one per step.
#include "verify/adversary.hpp"

#include <gtest/gtest.h>

#include "core/legitimacy.hpp"
#include "verify/checkers.hpp"

namespace ssr::verify {
namespace {

TEST(Adversary, ReplayRealizesPredictedWorstCaseN3) {
  auto checker = make_ssrmin_checker(3, 4);
  CheckOptions options;
  options.keep_heights = true;
  const CheckReport report = checker.run(options);
  ASSERT_TRUE(report.all_ok());
  ASSERT_FALSE(report.heights.empty());

  const std::uint64_t worst = worst_configuration(report);
  EXPECT_EQ(report.heights[worst], report.worst_case_steps);

  const ReplayResult replay = replay_worst_execution(checker, report, worst);
  EXPECT_EQ(replay.steps, report.worst_case_steps);
  EXPECT_TRUE(replay.potential_decreased_by_one);
  EXPECT_EQ(replay.path.size(), replay.steps + 1);
  // The path ends in a legitimate configuration and stays illegitimate
  // before it.
  core::SsrMinRing ring(3, 4);
  for (std::size_t k = 0; k + 1 < replay.path.size(); ++k) {
    EXPECT_FALSE(core::is_legitimate(
        ring, checker.codec().decode(replay.path[k])));
  }
  EXPECT_TRUE(core::is_legitimate(
      ring, checker.codec().decode(replay.path.back())));
}

TEST(Adversary, ReplayFromEveryHeightBandN3) {
  auto checker = make_ssrmin_checker(3, 4);
  CheckOptions options;
  options.keep_heights = true;
  const CheckReport report = checker.run(options);
  ASSERT_TRUE(report.all_ok());
  // Sample one configuration per height value and replay it.
  std::vector<bool> seen(report.worst_case_steps + 1, false);
  for (std::uint64_t c = 0; c < report.heights.size(); ++c) {
    const std::uint32_t h = report.heights[c];
    if (h == 0 || seen[h]) continue;
    seen[h] = true;
    const ReplayResult replay = replay_worst_execution(checker, report, c);
    EXPECT_EQ(replay.steps, h) << "config " << c;
    EXPECT_TRUE(replay.potential_decreased_by_one);
  }
}

TEST(Adversary, ReplayRealizesPredictedWorstCaseN4) {
  auto checker = make_ssrmin_checker(4, 5);
  CheckOptions options;
  options.keep_heights = true;
  const CheckReport report = checker.run(options);
  ASSERT_TRUE(report.all_ok());
  const std::uint64_t worst = worst_configuration(report);
  const ReplayResult replay = replay_worst_execution(checker, report, worst);
  EXPECT_EQ(replay.steps, report.worst_case_steps);
  EXPECT_TRUE(replay.potential_decreased_by_one);
}

TEST(Adversary, PackedHeightsDriveIdenticalReplaysInEveryStorageMode) {
  // Regression for the packed u16 height table: the height-greedy replay
  // must realize the same worst case whichever Phase B backend produced
  // the table.
  auto checker = make_ssrmin_checker(3, 4);
  CheckOptions options;
  options.keep_heights = true;
  std::vector<std::uint64_t> paths_seen;
  for (PhaseBStorage storage :
       {PhaseBStorage::kWatchLists, PhaseBStorage::kCsrFree,
        PhaseBStorage::kSpill}) {
    options.storage = storage;
    const CheckReport report = checker.run(options);
    ASSERT_TRUE(report.all_ok()) << to_string(storage);
    const std::uint64_t worst = worst_configuration(report);
    const ReplayResult replay = replay_worst_execution(checker, report, worst);
    EXPECT_EQ(replay.steps, report.worst_case_steps) << to_string(storage);
    EXPECT_TRUE(replay.potential_decreased_by_one) << to_string(storage);
    paths_seen.push_back(worst);
  }
  // All three backends agree on the worst configuration itself.
  EXPECT_EQ(paths_seen[0], paths_seen[1]);
  EXPECT_EQ(paths_seen[0], paths_seen[2]);
}

TEST(Adversary, LegitimateStartReplaysZeroSteps) {
  auto checker = make_ssrmin_checker(3, 4);
  CheckOptions options;
  options.keep_heights = true;
  const CheckReport report = checker.run(options);
  core::SsrMinRing ring(3, 4);
  const std::uint64_t code =
      checker.codec().encode(core::canonical_legitimate(ring, 1));
  const ReplayResult replay = replay_worst_execution(checker, report, code);
  EXPECT_EQ(replay.steps, 0u);
}

TEST(Adversary, RequiresHeights) {
  auto checker = make_ssrmin_checker(3, 4);
  const CheckReport report = checker.run();  // keep_heights = false
  EXPECT_THROW(replay_worst_execution(checker, report, 0),
               std::invalid_argument);
  EXPECT_THROW(worst_configuration(report), std::invalid_argument);
}

}  // namespace
}  // namespace ssr::verify
