// Tests for the deployment-facing DutyService API.
#include "inclusion/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace ssr::incl {
namespace {

using namespace std::chrono_literals;

DutyServiceParams small_params(std::uint64_t seed = 1) {
  DutyServiceParams p;
  p.node_count = 4;
  p.runtime.refresh_interval = 500us;
  p.runtime.seed = seed;
  return p;
}

TEST(DutyService, ParamsValidation) {
  DutyServiceParams p = small_params();
  EXPECT_NO_THROW(p.validate());
  p.node_count = 2;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(DutyService, CallbacksFireInPairs) {
  std::atomic<int> starts{0};
  std::atomic<int> stops{0};
  DutyService service(small_params(3), [&](std::size_t, bool on) {
    (on ? starts : stops).fetch_add(1);
  });
  service.start();
  std::this_thread::sleep_for(300ms);
  service.stop();
  EXPECT_GT(starts.load(), 5);
  // Starts and stops interleave; they can differ by at most the number of
  // nodes (open duty periods at shutdown).
  EXPECT_LE(std::abs(starts.load() - stops.load()), 4);
}

TEST(DutyService, DutyIsSharedAcrossNodes) {
  DutyService service(small_params(5), nullptr);
  service.start();
  std::this_thread::sleep_for(400ms);
  service.stop();
  const DutyStats stats = service.stats();
  ASSERT_EQ(stats.duty_seconds.size(), 4u);
  double total = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(stats.duty_seconds[i], 0.0) << "node " << i << " never served";
    EXPECT_GT(stats.activations[i], 0u);
    total += stats.duty_seconds[i];
  }
  // Total duty time is between 1x and 2x wall time (1..2 holders).
  EXPECT_GT(total, 0.3);
  EXPECT_LT(total, 1.2);
  EXPECT_GT(stats.total_activations, 10u);
}

TEST(DutyService, CoverageNeverZero) {
  DutyService service(small_params(7), nullptr);
  service.start();
  const runtime::Telemetry coverage = service.observe(300ms);
  service.stop();
  // Every holder transition is recorded: not one microsecond without a
  // node on duty, never more than two.
  EXPECT_GE(coverage.observed_us(), 300'000.0);
  EXPECT_EQ(coverage.zero_holder_dwell_us(), 0.0);
  EXPECT_GE(coverage.min_holders(), 1u);
  EXPECT_LE(coverage.max_holders(), 2u);
  EXPECT_GT(coverage.handovers(), 10u);
}

TEST(DutyService, SurvivesCorruption) {
  DutyService service(small_params(9), nullptr);
  service.start();
  std::this_thread::sleep_for(100ms);
  service.corrupt(2);
  std::this_thread::sleep_for(200ms);
  const DutyStats stats = service.stats();
  service.stop();
  // The service kept running and duty kept accumulating after the fault.
  EXPECT_GT(stats.total_activations, 5u);
  EXPECT_THROW(service.corrupt(9), std::invalid_argument);
}

TEST(DutyService, StatsSnapshotIncludesOpenPeriods) {
  DutyService service(small_params(11), nullptr);
  service.start();
  std::this_thread::sleep_for(150ms);
  const DutyStats mid = service.stats();
  // Someone is on duty right now (graceful handover guarantees >= 1).
  EXPECT_GE(mid.currently_active, 1u);
  EXPECT_LE(mid.currently_active, 2u);
  service.stop();
  const DutyStats fin = service.stats();
  EXPECT_EQ(fin.currently_active, 0u);  // all periods closed at stop
}

TEST(DutyService, ObserveRequiresRunning) {
  DutyService service(small_params(), nullptr);
  EXPECT_THROW(service.observe(10ms), std::invalid_argument);
}

}  // namespace
}  // namespace ssr::incl
