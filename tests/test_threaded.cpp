// Tests for the real-thread runtime: SSRmin's graceful-handover guarantee
// must survive contact with actual concurrency. observe() records every
// holder transition the node threads make, so a clean SSRmin window must
// read exactly zero microseconds without a holder.
// (Kept short and small-n: this suite runs on minimal CI hardware.)
#include "runtime/threaded_ring.hpp"

#include <gtest/gtest.h>

#include "core/legitimacy.hpp"
#include "dijkstra/kstate.hpp"

namespace ssr::runtime {
namespace {

using namespace std::chrono_literals;

RuntimeParams fast_params(std::uint64_t seed = 1) {
  RuntimeParams p;
  p.refresh_interval = 500us;
  p.seed = seed;
  return p;
}

/// Theorem 3: no instant without a holder, never more than two.
void expect_graceful(const Telemetry& t) {
  EXPECT_EQ(t.zero_holder_dwell_us(), 0.0);
  EXPECT_GE(t.min_holders(), 1u);
  EXPECT_LE(t.max_holders(), 2u);
}

TEST(RuntimeParams, Validation) {
  RuntimeParams p = fast_params();
  EXPECT_NO_THROW(p.validate());
  p.refresh_interval = std::chrono::microseconds{0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // Loss is the fault plan's drop probability, and the plan rejects
  // certain loss when the ring builds its injector.
  core::SsrMinRing ring(4, 5);
  p = fast_params();
  p.fault_plan.probabilities.drop = 1.0;
  EXPECT_THROW(ThreadedRing<core::SsrMinRing>(
                   ring, core::canonical_legitimate(ring, 0), p),
               std::invalid_argument);
}

TEST(ThreadedRing, RejectsSizeMismatch) {
  core::SsrMinRing ring(4, 5);
  EXPECT_THROW(
      ThreadedRing<core::SsrMinRing>(ring, core::SsrConfig(3), fast_params()),
      std::invalid_argument);
}

TEST(ThreadedRing, WindowStartsFromTheInitialHolders) {
  // start() publishes the coherent initial holder set, so a window opened
  // at once shows no startup gap.
  core::SsrMinRing ring(4, 5);
  ThreadedRing<core::SsrMinRing> tr(ring, core::canonical_legitimate(ring, 0),
                                    fast_params());
  EXPECT_THROW(tr.observe(1ms), std::invalid_argument);  // not started
  tr.start();
  const Telemetry t = tr.observe(5ms);
  tr.stop();
  expect_graceful(t);
}

TEST(ThreadedRing, ObserveRejectsANonPositiveDuration) {
  core::SsrMinRing ring(4, 5);
  ThreadedRing<core::SsrMinRing> tr(ring, core::canonical_legitimate(ring, 0),
                                    fast_params());
  tr.start();
  EXPECT_THROW(tr.observe(0ms), std::invalid_argument);
  EXPECT_THROW(tr.observe(-1ms), std::invalid_argument);
  // A rejected window leaves none open.
  const Telemetry t = tr.observe(5ms);
  tr.stop();
  expect_graceful(t);
}

TEST(ThreadedRing, GracefulHandoverNeverZeroHolders) {
  core::SsrMinRing ring(4, 5);
  ThreadedRing<core::SsrMinRing> tr(ring, core::canonical_legitimate(ring, 0),
                                    fast_params(3));
  tr.start();
  const Telemetry t = tr.observe(400ms);
  tr.stop();
  EXPECT_GE(t.observed_us(), 400'000.0);
  expect_graceful(t);
  // The ring actually ran: rules executed and the token moved.
  const NodeTelemetry total = t.node_totals();
  EXPECT_GT(total.rule_executions, 10u);
  EXPECT_GT(t.handovers(), 0u);
  EXPECT_GT(total.frames_sent, 0u);
}

TEST(ThreadedRing, SurvivesMessageLoss) {
  core::SsrMinRing ring(4, 5);
  RuntimeParams p = fast_params(5);
  p.fault_plan = FaultPlan::parse("drop=0.2");
  ThreadedRing<core::SsrMinRing> tr(ring, core::canonical_legitimate(ring, 0),
                                    p);
  tr.start();
  const Telemetry t = tr.observe(400ms);
  tr.stop();
  EXPECT_GT(t.node_totals().frames_dropped, 0u);
  EXPECT_GT(t.node_totals().rule_executions, 5u);
  // With loss, a node whose freshest view of its successor was dropped can
  // transiently act on a stale acknowledgment, so brief zero windows are
  // possible until the refresh repairs the cache (Theorem 4 is an
  // eventual guarantee under loss, not an invariant). They must be rare.
  ASSERT_GT(t.observed_us(), 0.0);
  EXPECT_LT(t.zero_holder_dwell_us(), 0.05 * t.observed_us());
}

TEST(ThreadedRing, RecoversAfterCorruption) {
  core::SsrMinRing ring(4, 5);
  ThreadedRing<core::SsrMinRing> tr(ring, core::canonical_legitimate(ring, 0),
                                    fast_params(7));
  tr.start();
  const Telemetry before = tr.observe(100ms);
  // Transient fault: scramble node 2 completely.
  tr.corrupt(2, core::SsrState{4, true, true});
  const Telemetry after = tr.observe(300ms);
  tr.stop();
  // The system keeps running and keeps making progress afterwards (the
  // node counters are cumulative).
  EXPECT_GT(after.node_totals().rule_executions,
            before.node_totals().rule_executions);
  EXPECT_GT(after.handovers(), 0u);
  // Self-stabilization: the ring spends the vast majority of the window
  // within the mutual-inclusion band.
  ASSERT_GT(after.observed_us(), 0.0);
  EXPECT_LT(after.zero_holder_dwell_us(), 0.2 * after.observed_us());
}

TEST(ThreadedRing, ActivationCallbackFires) {
  core::SsrMinRing ring(4, 5);
  ThreadedRing<core::SsrMinRing> tr(ring, core::canonical_legitimate(ring, 0),
                                    fast_params(9));
  std::atomic<int> activations{0};
  std::atomic<int> deactivations{0};
  tr.set_activation_callback([&](std::size_t, bool active) {
    (active ? activations : deactivations).fetch_add(1);
  });
  tr.start();
  std::this_thread::sleep_for(300ms);
  tr.stop();
  EXPECT_GT(activations.load(), 0);
  EXPECT_GT(deactivations.load(), 0);
}

TEST(ThreadedRing, StartStopIdempotent) {
  core::SsrMinRing ring(4, 5);
  ThreadedRing<core::SsrMinRing> tr(ring, core::canonical_legitimate(ring, 0),
                                    fast_params());
  tr.start();
  tr.start();
  std::this_thread::sleep_for(20ms);
  tr.stop();
  tr.stop();
  // Destruction after stop must also be clean (checked by ASan/valgrind
  // runs; here we just exercise the path).
  SUCCEED();
}

TEST(ThreadedRing, RestartCycleRunsCleanly) {
  core::SsrMinRing ring(4, 5);
  ThreadedRing<core::SsrMinRing> tr(ring, core::canonical_legitimate(ring, 0),
                                    fast_params(13));
  tr.start();
  const Telemetry first = tr.observe(150ms);
  tr.stop();
  // Second cycle restarts from the initial configuration on the same
  // object; the window must still record the graceful handover.
  tr.start();
  const Telemetry second = tr.observe(150ms);
  tr.stop();
  expect_graceful(first);
  expect_graceful(second);
  EXPECT_GT(second.handovers(), 0u);
  // Counters accumulate across cycles.
  EXPECT_GT(second.node_totals().frames_sent, first.node_totals().frames_sent);
}

TEST(ThreadedRing, FaultPlanBurstWindowKeepsAHolder) {
  core::SsrMinRing ring(4, 5);
  RuntimeParams p = fast_params(15);
  p.fault_plan = FaultPlan::parse("burst@60ms-120ms");
  ThreadedRing<core::SsrMinRing> tr(ring, core::canonical_legitimate(ring, 0),
                                    p);
  tr.start();
  const Telemetry t = tr.observe(300ms);
  tr.stop();
  // Theorem 3 through a total blackout: all frames die for 60ms but no
  // state is lost, so holders persist. (A handover straddling the window
  // edge can still open a brief stale-view gap — loss is loss — so this
  // asserts "essentially always covered", like the loss tests.)
  EXPECT_GT(t.node_totals().frames_dropped, 10u);  // the burst dropped frames
  ASSERT_EQ(t.window_outcomes().size(), 1u);
  EXPECT_TRUE(t.window_outcomes()[0].recovered);
  ASSERT_GT(t.observed_us(), 0.0);
  EXPECT_LT(t.zero_holder_dwell_us(), 0.05 * t.observed_us());
}

TEST(ThreadedRing, CrashWindowResetsTheNodeOnce) {
  core::SsrMinRing ring(4, 5);
  RuntimeParams p = fast_params(17);
  p.fault_plan = FaultPlan::parse("crash@40ms-80ms:node=2");
  ThreadedRing<core::SsrMinRing> tr(ring, core::canonical_legitimate(ring, 0),
                                    p);
  tr.start();
  const Telemetry t = tr.observe(300ms);
  tr.stop();
  EXPECT_EQ(t.node_totals().crash_restarts, 1u);
  // Stabilization after the wipe: the run keeps making progress and the
  // tail of the window sees holders again (Theorem 4 is eventual).
  EXPECT_GT(t.node_totals().rule_executions, 10u);
  ASSERT_EQ(t.window_outcomes().size(), 1u);
  EXPECT_TRUE(t.window_outcomes()[0].recovered);
}

TEST(ThreadedRing, DijkstraHoldersAreRecordedInTransit) {
  // A Dijkstra node holds the token from the cache update that grants it
  // until its own rule passes it on, so the holder set must change at
  // every pass; publishing only after the rule would record no holder
  // after the first pass. Between two holders the token is in flight and
  // no node holds it (Figure 11), so zero-holder windows are expected.
  dijkstra::KStateRing ring(4, 5);
  ThreadedRing<dijkstra::KStateRing> tr(ring, dijkstra::KStateConfig(4),
                                        fast_params(11));
  tr.start();
  const Telemetry t = tr.observe(300ms);
  tr.stop();
  EXPECT_GT(t.node_totals().rule_executions, 100u);
  EXPECT_GT(t.handovers(), 100u);
  EXPECT_GT(t.zero_intervals(), 50u);
  EXPECT_GT(t.holder_time_us()[1], 0.0);
  EXPECT_LE(t.max_holders(), 2u);  // transiently 2 while a cache is stale
}

}  // namespace
}  // namespace ssr::runtime
