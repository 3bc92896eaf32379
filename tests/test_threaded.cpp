// Tests for the real-thread runtime: SSRmin's graceful-handover guarantee
// must survive contact with actual concurrency — consistent sampler
// snapshots taken while node threads run never see zero token holders.
// (Kept short and small-n: this suite runs on minimal CI hardware.)
#include "runtime/threaded_ring.hpp"

#include <gtest/gtest.h>

#include "core/legitimacy.hpp"
#include "runtime/factories.hpp"

namespace ssr::runtime {
namespace {

using namespace std::chrono_literals;

RuntimeParams fast_params(std::uint64_t seed = 1) {
  RuntimeParams p;
  p.refresh_interval = 500us;
  p.loss_probability = 0.0;
  p.seed = seed;
  return p;
}

TEST(RuntimeParams, Validation) {
  RuntimeParams p = fast_params();
  EXPECT_NO_THROW(p.validate());
  p.refresh_interval = std::chrono::microseconds{0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = fast_params();
  p.loss_probability = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ThreadedRing, RejectsSizeMismatch) {
  core::SsrMinRing ring(4, 5);
  EXPECT_THROW(make_ssrmin_threaded(ring, core::SsrConfig(3), fast_params()),
               std::invalid_argument);
}

TEST(ThreadedRing, InitialSnapshotShowsOneHolder) {
  core::SsrMinRing ring(4, 5);
  auto tr = make_ssrmin_threaded(ring, core::canonical_legitimate(ring, 0),
                                 fast_params());
  // Before start(): the constructor published the coherent initial bits.
  const HolderSnapshot snap = tr->sample();
  EXPECT_TRUE(snap.consistent);
  std::size_t holders = 0;
  for (bool b : snap.holders)
    if (b) ++holders;
  EXPECT_EQ(holders, 1u);  // P0 holds both tokens
}

TEST(ThreadedRing, GracefulHandoverNeverZeroHolders) {
  core::SsrMinRing ring(4, 5);
  auto tr = make_ssrmin_threaded(ring, core::canonical_legitimate(ring, 0),
                                 fast_params(3));
  tr->start();
  const SamplerReport report = tr->observe(400ms, 200us);
  tr->stop();
  EXPECT_GT(report.consistent_samples, 100u);
  EXPECT_EQ(report.zero_holder_samples, 0u)
      << "a consistent snapshot observed zero token holders";
  EXPECT_GE(report.min_holders, 1u);
  EXPECT_LE(report.max_holders, 2u);
  // The ring actually ran: rules executed and the token moved.
  EXPECT_GT(report.rule_executions, 10u);
  EXPECT_GT(report.handovers, 0u);
  EXPECT_GT(report.messages_sent, 0u);
}

TEST(ThreadedRing, SurvivesMessageLoss) {
  core::SsrMinRing ring(4, 5);
  RuntimeParams p = fast_params(5);
  p.loss_probability = 0.2;
  auto tr = make_ssrmin_threaded(ring, core::canonical_legitimate(ring, 0), p);
  tr->start();
  const SamplerReport report = tr->observe(400ms, 200us);
  tr->stop();
  EXPECT_GT(report.messages_lost, 0u);
  EXPECT_GT(report.rule_executions, 5u);
  // With loss, a node whose freshest view of its successor was dropped can
  // transiently act on a stale acknowledgment, so brief zero windows are
  // possible until the refresh repairs the cache (Theorem 4 is an
  // eventual guarantee under loss, not an invariant). They must be rare.
  ASSERT_GT(report.consistent_samples, 0u);
  EXPECT_LT(static_cast<double>(report.zero_holder_samples),
            0.05 * static_cast<double>(report.consistent_samples));
}

TEST(ThreadedRing, RecoversAfterCorruption) {
  core::SsrMinRing ring(4, 5);
  auto tr = make_ssrmin_threaded(ring, core::canonical_legitimate(ring, 0),
                                 fast_params(7));
  tr->start();
  tr->observe(100ms, 500us);
  // Transient fault: scramble node 2 completely.
  tr->corrupt(2, core::SsrState{4, true, true});
  // The system keeps running and keeps making progress afterwards.
  const std::uint64_t before = tr->rule_executions();
  const SamplerReport after = tr->observe(300ms, 500us);
  tr->stop();
  EXPECT_GT(tr->rule_executions(), before);
  EXPECT_GT(after.consistent_samples, 50u);
  // Self-stabilization: by the end of the window the holder count is back
  // within the mutual-inclusion band on the vast majority of samples.
  EXPECT_LT(static_cast<double>(after.zero_holder_samples),
            0.2 * static_cast<double>(after.consistent_samples));
}

TEST(ThreadedRing, ActivationCallbackFires) {
  core::SsrMinRing ring(4, 5);
  auto tr = make_ssrmin_threaded(ring, core::canonical_legitimate(ring, 0),
                                 fast_params(9));
  std::atomic<int> activations{0};
  std::atomic<int> deactivations{0};
  tr->set_activation_callback([&](std::size_t, bool active) {
    (active ? activations : deactivations).fetch_add(1);
  });
  tr->start();
  std::this_thread::sleep_for(300ms);
  tr->stop();
  EXPECT_GT(activations.load(), 0);
  EXPECT_GT(deactivations.load(), 0);
}

TEST(ThreadedRing, StartStopIdempotent) {
  core::SsrMinRing ring(4, 5);
  auto tr = make_ssrmin_threaded(ring, core::canonical_legitimate(ring, 0),
                                 fast_params());
  tr->start();
  tr->start();
  std::this_thread::sleep_for(20ms);
  tr->stop();
  tr->stop();
  // Destruction after stop must also be clean (checked by ASan/valgrind
  // runs; here we just exercise the path).
  SUCCEED();
}

TEST(ThreadedRing, RestartCycleRunsCleanly) {
  core::SsrMinRing ring(4, 5);
  auto tr = make_ssrmin_threaded(ring, core::canonical_legitimate(ring, 0),
                                 fast_params(13));
  tr->start();
  const SamplerReport first = tr->observe(150ms, 300us);
  tr->stop();
  // Second cycle restarts from the initial configuration on the same
  // object; the sampler must still see the graceful handover.
  tr->start();
  const SamplerReport second = tr->observe(150ms, 300us);
  tr->stop();
  EXPECT_GT(first.consistent_samples, 50u);
  EXPECT_GT(second.consistent_samples, 50u);
  EXPECT_EQ(second.zero_holder_samples, 0u);
  EXPECT_GE(second.min_holders, 1u);
  // Counters accumulate across cycles.
  EXPECT_GE(second.messages_sent, first.messages_sent);
}

TEST(ThreadedRing, FaultPlanBurstWindowKeepsAHolder) {
  core::SsrMinRing ring(4, 5);
  RuntimeParams p = fast_params(15);
  p.fault_plan = FaultPlan::parse("burst@60ms-120ms");
  auto tr = make_ssrmin_threaded(ring, core::canonical_legitimate(ring, 0), p);
  Telemetry telemetry(4);
  telemetry.set_context("threaded", "ssrmin", 15);
  tr->start();
  const SamplerReport report = tr->observe(300ms, 300us, &telemetry);
  tr->stop();
  // Theorem 3 through a total blackout: all frames die for 60ms but no
  // state is lost, so holders persist. (A handover straddling the window
  // edge can still open a brief stale-view gap — loss is loss — so this
  // asserts "essentially always covered", like the loss tests.)
  EXPECT_GT(report.messages_lost, 10u);  // the burst actually dropped frames
  ASSERT_GT(report.consistent_samples, 0u);
  EXPECT_LT(static_cast<double>(report.zero_holder_samples),
            0.05 * static_cast<double>(report.consistent_samples));
  ASSERT_EQ(telemetry.window_outcomes().size(), 1u);
  EXPECT_TRUE(telemetry.window_outcomes()[0].recovered);
  EXPECT_LT(telemetry.zero_holder_dwell_us(), 0.05 * telemetry.observed_us());
}

TEST(ThreadedRing, CrashWindowResetsTheNodeOnce) {
  core::SsrMinRing ring(4, 5);
  RuntimeParams p = fast_params(17);
  p.fault_plan = FaultPlan::parse("crash@40ms-80ms:node=2");
  auto tr = make_ssrmin_threaded(ring, core::canonical_legitimate(ring, 0), p);
  Telemetry telemetry(4);
  tr->start();
  const SamplerReport report = tr->observe(300ms, 300us, &telemetry);
  tr->stop();
  EXPECT_EQ(tr->crash_restarts(), 1u);
  // Stabilization after the wipe: the run keeps making progress and the
  // tail of the window sees holders again (Theorem 4 is eventual).
  EXPECT_GT(report.rule_executions, 10u);
  ASSERT_EQ(telemetry.window_outcomes().size(), 1u);
  EXPECT_TRUE(telemetry.window_outcomes()[0].recovered);
}

TEST(ThreadedRing, DijkstraRunsButMayBlackout) {
  // The Dijkstra baseline also runs on threads; its samples may observe
  // zero holders (we do not assert they must — timing-dependent — only
  // that SSRmin's guarantee does not trivially hold for any protocol by
  // construction of the harness: the Dijkstra ring reports holder counts
  // of at most one).
  dijkstra::KStateRing ring(4, 5);
  auto tr = make_kstate_threaded(ring, dijkstra::KStateConfig(4),
                                 fast_params(11));
  tr->start();
  const SamplerReport report = tr->observe(300ms, 200us);
  tr->stop();
  EXPECT_GT(report.rule_executions, 10u);
  EXPECT_LE(report.max_holders, 2u);  // transiently 2 while a cache is stale
}

}  // namespace
}  // namespace ssr::runtime
