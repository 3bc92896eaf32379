// Tests for the shared fault-injection plan: spec parsing round-trips,
// validation, and the injector's frame/window semantics that all three
// executors (threaded, UDP, CST simulation) rely on.
#include "runtime/fault_plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ssr::runtime {
namespace {

TEST(FaultPlan, EmptyByDefault) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.describe(), "");
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ;  ").empty());
}

TEST(FaultPlan, ParsesProbabilities) {
  const FaultPlan plan =
      FaultPlan::parse("drop=0.1;dup=0.05;reorder=0.02;corrupt=0.3;"
                       "corrupt-bits=3");
  EXPECT_DOUBLE_EQ(plan.probabilities.drop, 0.1);
  EXPECT_DOUBLE_EQ(plan.probabilities.duplicate, 0.05);
  EXPECT_DOUBLE_EQ(plan.probabilities.reorder, 0.02);
  EXPECT_DOUBLE_EQ(plan.probabilities.corrupt, 0.3);
  EXPECT_EQ(plan.probabilities.corrupt_bits, 3u);
  EXPECT_TRUE(plan.windows.empty());
}

TEST(FaultPlan, ParsesWindows) {
  const FaultPlan plan = FaultPlan::parse(
      "burst@200ms-400ms;linkdown@0.5s-600ms:link=1->2;"
      "partition@700ms-750ms:cut=0/2;pause@1us-2us:node=1;"
      "crash@900000-950000:node=3");
  ASSERT_EQ(plan.windows.size(), 5u);
  EXPECT_EQ(plan.windows[0].kind, FaultWindow::Kind::kBurstLoss);
  EXPECT_DOUBLE_EQ(plan.windows[0].begin_us, 200000.0);
  EXPECT_DOUBLE_EQ(plan.windows[0].end_us, 400000.0);
  EXPECT_EQ(plan.windows[0].from, kAnyNode);
  EXPECT_EQ(plan.windows[0].to, kAnyNode);
  EXPECT_EQ(plan.windows[1].kind, FaultWindow::Kind::kLinkDown);
  EXPECT_DOUBLE_EQ(plan.windows[1].begin_us, 500000.0);
  EXPECT_EQ(plan.windows[1].from, 1u);
  EXPECT_EQ(plan.windows[1].to, 2u);
  EXPECT_EQ(plan.windows[2].kind, FaultWindow::Kind::kPartition);
  EXPECT_EQ(plan.windows[2].cut_a, 0u);
  EXPECT_EQ(plan.windows[2].cut_b, 2u);
  EXPECT_EQ(plan.windows[3].kind, FaultWindow::Kind::kNodePause);
  EXPECT_EQ(plan.windows[3].node, 1u);
  EXPECT_EQ(plan.windows[4].kind, FaultWindow::Kind::kCrashRestart);
  EXPECT_EQ(plan.windows[4].node, 3u);
  EXPECT_DOUBLE_EQ(plan.windows[4].begin_us, 900000.0);
}

TEST(FaultPlan, DescribeRoundTrips) {
  const char* spec =
      "drop=0.1;dup=0.05;corrupt=0.25;corrupt-bits=2;"
      "burst@200ms-400ms;linkdown@500ms-600ms:link=1->*;"
      "partition@700ms-750ms:cut=0/2;crash@900ms-950ms:node=3";
  const FaultPlan plan = FaultPlan::parse(spec);
  const FaultPlan reparsed = FaultPlan::parse(plan.describe());
  EXPECT_EQ(plan.describe(), reparsed.describe());
  ASSERT_EQ(reparsed.windows.size(), 4u);
  EXPECT_DOUBLE_EQ(reparsed.probabilities.drop, 0.1);
  EXPECT_EQ(reparsed.windows[1].from, 1u);
  EXPECT_EQ(reparsed.windows[1].to, kAnyNode);
  // The shortest form that parses back to the same value.
  EXPECT_EQ(FaultPlan::parse("drop=0.1;dup=0.05").describe(),
            "drop=0.1;dup=0.05");
}

TEST(FaultPlan, ParseErrors) {
  EXPECT_THROW(FaultPlan::parse("drop=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop=abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("frobnicate=0.1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("burst@100"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("burst@100-200:link=1"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("meteor@100-200"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash@100-200:cut=0/1;corrupt-bits=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("pause@100ms-50ly:node=1"),
               std::invalid_argument);
  // Cutting one edge twice partitions nothing.
  EXPECT_THROW(FaultPlan::parse("partition@1ms-2ms:cut=0/0"),
               std::invalid_argument);
}

TEST(FaultPlan, ValidationCatchesBadRanges) {
  // begin >= end
  FaultPlan plan = FaultPlan::parse("burst@200ms-100ms");
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  // node out of range
  plan = FaultPlan::parse("crash@100ms-200ms:node=7");
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  // crash needs a concrete node
  plan = FaultPlan::parse("crash@100ms-200ms");
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  // partition cut out of range
  plan = FaultPlan::parse("partition@100ms-200ms:cut=0/9");
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  // a partition without a cut would cut edge 0 twice
  plan = FaultPlan::parse("partition@100ms-200ms");
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  // in-range versions are fine
  EXPECT_NO_THROW(FaultPlan::parse("crash@100ms-200ms:node=3").validate(4));
  EXPECT_NO_THROW(
      FaultPlan::parse("partition@100ms-200ms:cut=0/2").validate(4));
}

TEST(FaultInjector, EmptyPlanConsumesNoRandomness) {
  FaultInjector injector(FaultPlan{}, 4);
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 10; ++i) {
    const FrameFate fate = injector.on_send(0, 1, 0.0, a);
    EXPECT_FALSE(fate.drop);
    EXPECT_FALSE(fate.duplicate);
    EXPECT_FALSE(fate.reorder);
    EXPECT_EQ(fate.corrupt_bits, 0u);
  }
  // a must not have advanced relative to b: an empty plan is inert, which
  // is what keeps pre-fault-plan seeded runs bit-identical.
  EXPECT_EQ(a(), b());
}

TEST(FaultInjector, WindowDropConsumesNoRandomness) {
  const FaultPlan plan = FaultPlan::parse("drop=0.5;burst@100-200");
  FaultInjector injector(plan, 4);
  Rng a(42);
  Rng b(42);
  const FrameFate fate = injector.on_send(0, 1, 150.0, a);
  EXPECT_TRUE(fate.drop);
  EXPECT_TRUE(fate.window_drop);
  EXPECT_EQ(a(), b());  // the probability draws were skipped entirely
}

TEST(FaultInjector, ProbabilisticFatesAreSeeded) {
  const FaultPlan plan = FaultPlan::parse("drop=0.3;dup=0.2;reorder=0.1");
  FaultInjector injector(plan, 4);
  auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    std::size_t drops = 0, dups = 0, reorders = 0;
    for (int i = 0; i < 4000; ++i) {
      const FrameFate fate = injector.on_send(0, 1, 0.0, rng);
      if (fate.drop) ++drops;
      if (fate.duplicate) ++dups;
      if (fate.reorder) ++reorders;
    }
    return std::tuple{drops, dups, reorders};
  };
  const auto [drops, dups, reorders] = run(7);
  // Duplicate/reorder are only drawn for frames that survive the drop, so
  // their means are conditional: 4000 * 0.7 * p.
  EXPECT_NEAR(static_cast<double>(drops), 1200.0, 150.0);
  EXPECT_NEAR(static_cast<double>(dups), 560.0, 120.0);
  EXPECT_NEAR(static_cast<double>(reorders), 280.0, 100.0);
  EXPECT_EQ(run(7), run(7));  // same seed, same fault sequence
}

TEST(FaultInjector, LinkSelectorsMatchDirectionally) {
  const FaultPlan plan = FaultPlan::parse("linkdown@0-100:link=1->2");
  FaultInjector injector(plan, 4);
  Rng rng(1);
  EXPECT_TRUE(injector.on_send(1, 2, 50.0, rng).window_drop);
  EXPECT_FALSE(injector.on_send(2, 1, 50.0, rng).drop);  // reverse flows
  EXPECT_FALSE(injector.on_send(1, 2, 150.0, rng).drop);  // window over
  // Wildcard sender.
  FaultInjector any(FaultPlan::parse("burst@0-100:link=*->2"), 4);
  EXPECT_TRUE(any.on_send(0, 2, 10.0, rng).window_drop);
  EXPECT_TRUE(any.on_send(3, 2, 10.0, rng).window_drop);
  EXPECT_FALSE(any.on_send(2, 3, 10.0, rng).drop);
}

TEST(FaultInjector, PartitionCutsBothDirectionsOfBothEdges) {
  // cut=0/2 on a 4-ring removes edges (0,1) and (2,3) in both directions,
  // splitting {1,2} from {3,0}.
  const FaultPlan plan = FaultPlan::parse("partition@0-100:cut=0/2");
  FaultInjector injector(plan, 4);
  Rng rng(1);
  EXPECT_TRUE(injector.on_send(0, 1, 50.0, rng).window_drop);
  EXPECT_TRUE(injector.on_send(1, 0, 50.0, rng).window_drop);
  EXPECT_TRUE(injector.on_send(2, 3, 50.0, rng).window_drop);
  EXPECT_TRUE(injector.on_send(3, 2, 50.0, rng).window_drop);
  // Edges inside each side stay up.
  EXPECT_FALSE(injector.on_send(1, 2, 50.0, rng).drop);
  EXPECT_FALSE(injector.on_send(3, 0, 50.0, rng).drop);
}

TEST(FaultInjector, NodeWindowsBlockAndCrashFiresOnce) {
  const FaultPlan plan =
      FaultPlan::parse("pause@0-100:node=1;crash@200-300:node=2");
  FaultInjector injector(plan, 4);
  Rng rng(1);
  // Pause: node 1 is down, frames touching it are dropped.
  EXPECT_TRUE(injector.node_down(1, 50.0));
  EXPECT_FALSE(injector.node_down(1, 150.0));
  EXPECT_TRUE(injector.on_send(0, 1, 50.0, rng).window_drop);
  EXPECT_TRUE(injector.on_send(1, 2, 50.0, rng).window_drop);
  // Crash: fires exactly once at/after the window begin, and the node is
  // down for the window.
  EXPECT_FALSE(injector.take_crash(2, 100.0));
  EXPECT_TRUE(injector.take_crash(2, 250.0));
  EXPECT_FALSE(injector.take_crash(2, 260.0));
  EXPECT_TRUE(injector.node_down(2, 250.0));
  EXPECT_FALSE(injector.node_down(2, 350.0));
  // rearm() re-enables the crash for a restart cycle.
  injector.rearm();
  EXPECT_TRUE(injector.take_crash(2, 250.0));
}

TEST(FaultInjector, RejectsInvalidPlanAtConstruction) {
  EXPECT_THROW(FaultInjector(FaultPlan::parse("crash@0-100:node=9"), 4),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector(FaultPlan{}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace ssr::runtime
