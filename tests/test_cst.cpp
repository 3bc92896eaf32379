// Tests for the discrete-event CST simulation machinery itself: cache
// coherence bookkeeping, event processing, observer integration, and
// parameter validation.
#include "msgpass/cst.hpp"

#include <gtest/gtest.h>

#include "core/legitimacy.hpp"
#include "graph/cst.hpp"
#include "graph/mis.hpp"
#include "graph/topology.hpp"
#include "msgpass/factories.hpp"

namespace ssr::msgpass {
namespace {

NetworkParams quiet_net(std::uint64_t seed = 1) {
  NetworkParams p;
  p.delay_min = 0.5;
  p.delay_max = 1.0;
  p.loss_probability = 0.0;
  p.refresh_interval = 5.0;
  p.service_min = 0.4;
  p.service_max = 0.8;
  p.seed = seed;
  return p;
}

TEST(NetworkParams, Validation) {
  NetworkParams p = quiet_net();
  EXPECT_NO_THROW(p.validate());
  p.delay_min = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = quiet_net();
  p.delay_max = 0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = quiet_net();
  p.loss_probability = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = quiet_net();
  p.refresh_interval = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = quiet_net();
  p.service_max = 0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(CstSimulation, StartsCoherent) {
  core::SsrMinRing ring(5, 6);
  auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0),
                             quiet_net());
  EXPECT_TRUE(sim.coherent());
  EXPECT_EQ(sim.size(), 5u);
  EXPECT_EQ(sim.now(), 0.0);
  // Initial holder: P0 holds primary + secondary -> one holding node.
  EXPECT_EQ(sim.holder_count(), 1u);
}

TEST(CstSimulation, CachesTrackNeighborIndices) {
  core::SsrMinRing ring(4, 5);
  core::SsrConfig init(4);
  for (std::size_t i = 0; i < 4; ++i) init[i].x = static_cast<std::uint32_t>(i);
  auto sim = make_ssrmin_cst(ring, init, quiet_net());
  EXPECT_EQ(sim.cache_pred(0).x, 3u);
  EXPECT_EQ(sim.cache_succ(0).x, 1u);
  EXPECT_EQ(sim.cache_pred(2).x, 1u);
  EXPECT_EQ(sim.cache_succ(3).x, 0u);
}

TEST(CstSimulation, RandomizedCachesBreakCoherence) {
  core::SsrMinRing ring(4, 5);
  auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0),
                             quiet_net(7));
  sim.randomize_caches([](Rng& rng) {
    core::SsrState s;
    s.x = static_cast<std::uint32_t>(rng.below(5));
    s.rts = rng.bernoulli(0.5);
    s.tra = rng.bernoulli(0.5);
    return s;
  });
  // 16 independent random cache entries all matching is essentially
  // impossible with this seed.
  EXPECT_FALSE(sim.coherent());
}

TEST(CstSimulation, MakeCachesCoherentRejudgesTheHolders) {
  core::SsrMinRing ring(4, 5);
  auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0),
                             quiet_net(7));
  sim.randomize_caches([](Rng& rng) {
    core::SsrState s;
    s.x = static_cast<std::uint32_t>(rng.below(5));
    s.rts = rng.bernoulli(0.5);
    s.tra = rng.bernoulli(0.5);
    return s;
  });
  sim.make_caches_coherent();
  EXPECT_TRUE(sim.coherent());
  // Back at the coherent legitimate start, P0 is the only holder.
  EXPECT_EQ(sim.holder_count(), 1u);
  EXPECT_EQ(sim.token_view(), std::vector<bool>({true, false, false, false}));
}

TEST(CstSimulation, TimeAdvancesAndEventsFire) {
  core::SsrMinRing ring(5, 6);
  auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0),
                             quiet_net());
  const CoverageStats stats = sim.run(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
  EXPECT_NEAR(stats.observed_time, 100.0, 1e-9);
  EXPECT_GT(stats.events, 0u);
  EXPECT_GT(stats.deliveries, 0u);
  EXPECT_GT(stats.rule_executions, 0u);
  EXPECT_EQ(stats.losses, 0u);
}

TEST(CstSimulation, ProgressTokensCirculate) {
  core::SsrMinRing ring(5, 6);
  auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0),
                             quiet_net());
  sim.run(300.0);
  // The x values must have advanced beyond the initial 0 somewhere: the
  // primary token made progress around the ring.
  bool advanced = false;
  for (const auto& s : sim.global_config()) {
    if (s.x != 0) advanced = true;
  }
  EXPECT_TRUE(advanced);
  EXPECT_GT(sim.run(50.0).handovers, 0u);
}

TEST(CstSimulation, ObserverIntervalsPartitionTime) {
  core::SsrMinRing ring(4, 5);
  auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 1),
                             quiet_net(3));
  double covered = 0.0;
  double last_end = 0.0;
  sim.set_observer([&](Time from, Time to, const std::vector<bool>& holders) {
    EXPECT_GE(from, last_end - 1e-12);
    EXPECT_GT(to, from);
    EXPECT_EQ(holders.size(), 4u);
    covered += to - from;
    last_end = to;
  });
  sim.run(80.0);
  EXPECT_NEAR(covered, 80.0, 1e-9);
  EXPECT_NEAR(last_end, 80.0, 1e-9);
}

TEST(CstSimulation, RunUntilStopsEarly) {
  core::SsrMinRing ring(5, 6);
  auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0),
                             quiet_net());
  bool stopped = false;
  sim.run_until(
      [](const CstSimulation<core::SsrMinRing>& s) { return s.now() > 10.0; },
      1000.0, &stopped);
  EXPECT_TRUE(stopped);
  EXPECT_LT(sim.now(), 50.0);
}

TEST(CstSimulation, RunUntilDeadlinePassesWhenNeverStopped) {
  core::SsrMinRing ring(5, 6);
  auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0),
                             quiet_net());
  bool stopped = true;
  sim.run_until([](const CstSimulation<core::SsrMinRing>&) { return false; },
                20.0, &stopped);
  EXPECT_FALSE(stopped);
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
}

TEST(CstSimulation, StopBeforeTheFirstRoundReportsTheCurrentCount) {
  // An empty window's holder extremes are its initial count, not the
  // [SIZE_MAX, 0] of an unset CoverageStats.
  core::SsrMinRing ring(5, 6);
  auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0),
                             quiet_net());
  bool stopped = false;
  const CoverageStats stats = sim.run_until(
      [](const CstSimulation<core::SsrMinRing>&) { return true; }, 100.0,
      &stopped);
  EXPECT_TRUE(stopped);
  EXPECT_EQ(stats.observed_time, 0.0);
  EXPECT_EQ(stats.events, 0u);
  EXPECT_EQ(sim.holder_count(), 1u);
  EXPECT_EQ(stats.min_holders, 1u);
  EXPECT_EQ(stats.max_holders, 1u);
}

TEST(GraphCstSimulation, StopBeforeTheFirstRoundReportsTheCurrentCount) {
  const graph::Topology g = graph::Topology::ring(6);
  graph::MisConfig initial(6);
  initial[0].status = graph::MisStatus::kIn;
  initial[3].status = graph::MisStatus::kIn;
  auto active = [](std::size_t, const graph::MisState& self,
                   std::span<const graph::MisState>) {
    return self.status == graph::MisStatus::kIn;
  };
  graph::GraphCstSimulation<graph::TurauMis> sim(graph::TurauMis(g), initial,
                                                 active, quiet_net());
  bool stopped = false;
  const CoverageStats stats = sim.run_until(
      [](const graph::GraphCstSimulation<graph::TurauMis>&) { return true; },
      100.0, &stopped);
  EXPECT_TRUE(stopped);
  EXPECT_EQ(stats.events, 0u);
  EXPECT_EQ(sim.active_count(), 2u);
  EXPECT_EQ(stats.min_holders, 2u);
  EXPECT_EQ(stats.max_holders, 2u);
}

TEST(GraphCstSimulation, AHubOfTwoToTheSixteenLinksRunsAndOneMoreIsRejected) {
  // The hub of star(n) has n - 1 links, and HeapRec::port numbers 2^16.
  using Sim = graph::GraphCstSimulation<graph::TurauMis>;
  auto active = [](std::size_t, const graph::MisState& self,
                   std::span<const graph::MisState>) {
    return self.status == graph::MisStatus::kIn;
  };
  const std::size_t widest = (std::size_t{1} << 16) + 1;
  try {
    Sim sim(graph::TurauMis(graph::Topology::star(widest + 1)),
            graph::MisConfig(widest + 1), active, quiet_net());
    FAIL() << "a hub of degree 65537 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("node 0 has degree 65537"),
              std::string::npos)
        << e.what();
  }
  Sim sim(graph::TurauMis(graph::Topology::star(widest)),
          graph::MisConfig(widest), active, quiet_net());
  const CoverageStats stats = sim.run(1.0);
  EXPECT_GT(stats.events, 0u);
  EXPECT_EQ(sim.now(), 1.0);
}

TEST(CstSimulation, LossesAreCountedAndRepaired) {
  core::SsrMinRing ring(5, 6);
  NetworkParams p = quiet_net(11);
  p.loss_probability = 0.3;
  auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), p);
  const CoverageStats stats = sim.run(400.0);
  EXPECT_GT(stats.losses, 0u);
  // Despite 30% loss the refresh timer keeps the system making progress.
  EXPECT_GT(stats.rule_executions, 0u);
  bool advanced = false;
  for (const auto& s : sim.global_config()) {
    if (s.x != 0) advanced = true;
  }
  EXPECT_TRUE(advanced);
}

TEST(CstSimulation, DuplicationIsATransientFaultAtWorst) {
  // Message duplication (paper §2.2's fault list) can re-deliver an OLD
  // state after a newer one — a cache regression. Self-stabilization must
  // absorb it: the run keeps making progress and coverage stays near 1
  // (brief zero windows are possible exactly because a regression is a
  // transient fault).
  core::SsrMinRing ring(5, 6);
  NetworkParams p = quiet_net(21);
  p.duplicate_probability = 0.3;
  auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), p);
  const CoverageStats stats = sim.run(3000.0);
  EXPECT_GT(stats.rule_executions, 100u);
  EXPECT_GT(stats.coverage(), 0.95);
  // And the system still stabilizes to legitimate + coherent afterwards.
  bool settled = false;
  auto stop = [&ring](const CstSimulation<core::SsrMinRing>& s) {
    return s.coherent() && core::is_legitimate(ring, s.global_config());
  };
  sim.run_until(stop, 5000.0, &settled);
  EXPECT_TRUE(settled);
}

TEST(CstSimulation, DuplicateProbabilityValidated) {
  NetworkParams p = quiet_net();
  p.duplicate_probability = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(CstSimulation, DeterministicForFixedSeed) {
  core::SsrMinRing ring(5, 6);
  auto run_once = [&ring](std::uint64_t seed) {
    auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0),
                               quiet_net(seed));
    sim.run(200.0);
    return sim.global_config();
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

TEST(CstSimulation, RejectsSizeMismatch) {
  core::SsrMinRing ring(5, 6);
  EXPECT_THROW(
      make_ssrmin_cst(ring, core::SsrConfig(4), quiet_net()),
      std::invalid_argument);
}

}  // namespace
}  // namespace ssr::msgpass
