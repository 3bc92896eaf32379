// Golden trajectories for the CST engines. test_cst_parallel.cpp pins each
// engine against itself across worker counts, so it cannot see a change
// that moves every worker count the same way; this test pins the scenarios
// of that file against constants recorded from an earlier engine (two heap
// records per transmission, a binary heap), at one and two workers. Every
// statistic of CoverageStats is compared exactly (doubles in hex), together
// with the final configuration and a 64-bit FNV-1a digest of the telemetry
// JSON the interval observer produces. The graph engine has no observer, so
// its record carries no digest.
//
// On a mismatch the failure message shows the run's record in the same
// form as the golden string. A change that is meant to alter trajectories
// replaces the golden strings with those records and says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/legitimacy.hpp"
#include "graph/cst.hpp"
#include "graph/mis.hpp"
#include "graph/topology.hpp"
#include "msgpass/cst.hpp"
#include "msgpass/factories.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/telemetry.hpp"

namespace ssr::msgpass {
namespace {

constexpr std::size_t kWorkerCounts[] = {1, 2};

NetworkParams base_net(std::uint64_t seed) {
  NetworkParams p;
  p.delay_min = 0.5;
  p.delay_max = 1.5;
  p.refresh_interval = 8.0;
  p.service_min = 0.4;
  p.service_max = 0.9;
  p.seed = seed;
  return p;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string describe(const CoverageStats& s) {
  std::ostringstream os;
  os << std::hexfloat << "observed=" << s.observed_time
     << " zero_time=" << s.zero_token_time << std::defaultfloat
     << " zero_intervals=" << s.zero_intervals << " holders=["
     << s.min_holders << "," << s.max_holders << "] events=" << s.events
     << " deliveries=" << s.deliveries
     << " transmissions=" << s.transmissions << " losses=" << s.losses
     << " rule_executions=" << s.rule_executions
     << " crash_restarts=" << s.crash_restarts
     << " handovers=" << s.handovers;
  return os.str();
}

std::string print_config(const core::SsrConfig& config) {
  std::string out;
  for (const auto& s : config) {
    out += std::to_string(s.x) + (s.rts ? "R" : "r") + (s.tra ? "T" : "t") +
           ";";
  }
  return out;
}

std::string print_config(const dijkstra::KStateConfig& config) {
  std::string out;
  for (const auto& s : config) out += std::to_string(s.x) + ";";
  return out;
}

std::string print_config(const dijkstra::DualConfig& config) {
  std::string out;
  for (const auto& s : config) {
    out += std::to_string(s.a) + "/" + std::to_string(s.b) + ";";
  }
  return out;
}

/// Runs @p sim for @p duration with a telemetry observer attached and
/// returns its record.
template <typename Sim>
std::string run_ring(Sim& sim, Time duration) {
  runtime::Telemetry t(sim.size());
  t.set_context("cst-golden-test", "cst", 1);
  sim.set_observer([&t](Time from, Time /*to*/,
                        const std::vector<bool>& holders) {
    t.observe(from * 1000.0, holders);
  });
  const CoverageStats s = sim.run(duration);
  t.finish(sim.fault_clock_us());
  t.set_aggregates(s.transmissions, s.losses, s.deliveries,
                   s.rule_executions);
  std::ostringstream os;
  os << describe(s) << " config=" << print_config(sim.global_config())
     << " telemetry=" << std::hex << fnv1a(t.to_json_string());
  return os.str();
}

void expect_golden(const std::function<std::string(std::size_t)>& run,
                   const std::string& golden) {
  for (const std::size_t w : kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(w));
    EXPECT_EQ(golden, run(w));
  }
}

/// SSRmin(11,12) from a legitimate start, caches optionally randomized.
std::function<std::string(std::size_t)> ssrmin(NetworkParams base,
                                               Time duration,
                                               bool randomize) {
  return [base, duration, randomize](std::size_t workers) {
    core::SsrMinRing ring(11, 12);
    NetworkParams net = base;
    net.workers = workers;
    auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), net);
    if (randomize) {
      sim.randomize_caches([](Rng& r) {
        core::SsrState s;
        s.x = static_cast<std::uint32_t>(r.below(12));
        s.rts = r.bernoulli(0.5);
        s.tra = r.bernoulli(0.5);
        return s;
      });
    }
    return run_ring(sim, duration);
  };
}

TEST(CstGolden, SsrMinFaultFree) {
  expect_golden(ssrmin(base_net(21), 400.0, false),
                "observed=0x1.9p+8 zero_time=0x0p+0 zero_intervals=0"
                " holders=[1,2] events=9396 deliveries=8661"
                " transmissions=8683 losses=0 rule_executions=182"
                " crash_restarts=0 handovers=121"
                " config=6rt;6rt;6rt;6rt;6rt;5Rt;5rT;5rt;5rt;5rt;5rt;"
                " telemetry=fb7df5fb65c33785");
}

TEST(CstGolden, SsrMinLossAndDuplication) {
  NetworkParams net = base_net(22);
  net.loss_probability = 0.15;
  net.duplicate_probability = 0.1;
  expect_golden(ssrmin(net, 600.0, true),
                "observed=0x1.2cp+9 zero_time=0x0p+0 zero_intervals=0"
                " holders=[1,11] events=15075 deliveries=13970"
                " transmissions=12911 losses=1937 rule_executions=267"
                " crash_restarts=0 handovers=188"
                " config=8rt;8rt;8rt;8rt;8rt;8rt;8rt;7rT;7rt;7rt;7rt;"
                " telemetry=178f0a952b34bf5d");
}

TEST(CstGolden, SsrMinExponentialTailDelays) {
  NetworkParams net = base_net(23);
  net.delay_model = DelayModel::kExponentialTail;
  net.delay_max = 3.0;
  expect_golden(ssrmin(net, 400.0, true),
                "observed=0x1.9p+8 zero_time=0x0p+0 zero_intervals=0"
                " holders=[1,9] events=3445 deliveries=2788"
                " transmissions=2810 losses=0 rule_executions=107"
                " crash_restarts=0 handovers=85"
                " config=3rt;2Rt;2rT;2rt;2rt;2rt;2rt;2rt;2rt;2rt;2rt;"
                " telemetry=9d12cf665c29a7e6");
}

TEST(CstGolden, SsrMinFaultPlanWithCrashWindows) {
  NetworkParams net = base_net(24);
  net.loss_probability = 0.05;
  net.fault_plan = runtime::FaultPlan::parse(
      "drop=0.05;dup=0.03;reorder=0.02;"
      "crash@100ms-140ms:node=3;crash@250ms-300ms:node=7;"
      "pause@400ms-430ms:node=0;burst@480ms-500ms");
  expect_golden(ssrmin(net, 600.0, true),
                "observed=0x1.2cp+9 zero_time=0x1.5ea0f9dcad674p+5"
                " zero_intervals=4 holders=[0,10] events=13047"
                " deliveries=11948 transmissions=11701 losses=1419"
                " rule_executions=273 crash_restarts=2 handovers=200"
                " config=7rt;7rt;7rt;7rt;7rt;7rt;7rt;7rt;6Rt;6rT;6rt;"
                " telemetry=edbcffd4f4ceecb3");
}

TEST(CstGolden, SsrMinCrashWindowWithLoss) {
  NetworkParams net = base_net(25);
  net.loss_probability = 0.1;
  net.fault_plan =
      runtime::FaultPlan::parse("crash@120ms-170ms:node=5;drop=0.04");
  expect_golden(ssrmin(net, 500.0, true),
                "observed=0x1.f4p+8 zero_time=0x0p+0 zero_intervals=0"
                " holders=[1,11] events=11624 deliveries=10610"
                " transmissions=10632 losses=1496 rule_executions=320"
                " crash_restarts=1 handovers=228"
                " config=7rt;7rt;7rt;7rt;7rt;7rt;7rt;7rt;6Rt;6rt;6rt;"
                " telemetry=d7f0c3be56d79dc3");
}

TEST(CstGolden, DijkstraKStateWithLoss) {
  auto run = [](std::size_t workers) {
    dijkstra::KStateRing ring(11, 12);
    NetworkParams net = base_net(26);
    net.loss_probability = 0.2;
    net.workers = workers;
    auto sim = make_kstate_cst(ring, dijkstra::KStateConfig(11), net);
    sim.randomize_caches([](Rng& r) {
      dijkstra::KStateLocal s;
      s.x = static_cast<std::uint32_t>(r.below(12));
      return s;
    });
    return run_ring(sim, 500.0);
  };
  expect_golden(run,
                "observed=0x1.f4p+8 zero_time=0x1.64a5544364c6ep+8"
                " zero_intervals=205 holders=[0,9] events=11451"
                " deliveries=10512 transmissions=10534 losses=2206"
                " rule_executions=246 crash_restarts=0 handovers=493"
                " config=6;6;6;6;6;6;6;6;6;6;6;"
                " telemetry=8bd5b8945329331d");
}

TEST(CstGolden, DualDijkstra) {
  auto run = [](std::size_t workers) {
    dijkstra::DualKStateRing ring(10, 11);
    NetworkParams net = base_net(27);
    net.loss_probability = 0.1;
    net.workers = workers;
    auto sim = make_dual_cst(ring, dijkstra::DualConfig(10), net);
    return run_ring(sim, 400.0);
  };
  expect_golden(run,
                "observed=0x1.9p+8 zero_time=0x1.1e45f6642cb55p+8"
                " zero_intervals=175 holders=[0,1] events=8488"
                " deliveries=7813 transmissions=7833 losses=728"
                " rule_executions=175 crash_restarts=0 handovers=349"
                " config=7/7;7/7;7/7;7/7;7/7;6/6;6/6;6/6;6/6;6/6;"
                " telemetry=578035a518ecefbd");
}

TEST(CstGolden, GraphMis) {
  auto run = [](std::size_t workers) {
    Rng rng(31);
    const graph::Topology g = graph::Topology::random_connected(20, 0.2, rng);
    graph::TurauMis mis(g);
    graph::MisConfig initial;
    for (std::size_t i = 0; i < g.size(); ++i) {
      initial.push_back(
          graph::MisState{static_cast<graph::MisStatus>(rng.below(3))});
    }
    auto active = [](std::size_t, const graph::MisState& self,
                     std::span<const graph::MisState>) {
      return self.status == graph::MisStatus::kIn;
    };
    NetworkParams net;
    net.loss_probability = 0.15;
    net.seed = 33;
    net.workers = workers;
    graph::GraphCstSimulation<graph::TurauMis> sim(mis, initial, active, net);
    const CoverageStats s = sim.run(400.0);
    std::string config;
    for (const graph::MisState& m : sim.global_config()) {
      config += std::to_string(static_cast<int>(m.status));
    }
    return describe(s) + " config=" + config;
  };
  expect_golden(run,
                "observed=0x1.9p+8 zero_time=0x0p+0 zero_intervals=0"
                " holders=[5,8] events=47185 deliveries=46173"
                " transmissions=46289 losses=6931 rule_executions=15"
                " crash_restarts=0 handovers=6 config=02000000222200020000");
}

}  // namespace
}  // namespace ssr::msgpass
