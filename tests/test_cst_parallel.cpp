// Serial-vs-sharded differential for the conservative parallel CST
// engine: every statistic the simulator produces — CoverageStats with its
// float fields compared bit-for-bit, final global configurations, token
// views, and the runtime::Telemetry JSON export — must be byte-identical
// at 1, 2 and 8 workers, across protocols (SSRmin / Dijkstra / dual),
// delay models, loss/duplication probabilities and scripted FaultPlan
// crash windows. This is the same determinism bar the model checker and
// TrialSweep are held to (PR 1 / PR 2), and it is what lets every bench
// or experiment flip NetworkParams::workers without re-baselining.
//
// Also runs under TSan in CI: the multi-worker runs double as a race
// detector for the shard boundaries (outbox exchange, per-node injector
// state, byte-granular flag arrays).
#include <gtest/gtest.h>

#include <cstdint>
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

constexpr std::size_t kWorkerCounts[] = {1, 2, 8};

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

/// Everything one run produces, in exactly comparable form.
struct RunRecord {
  CoverageStats stats;
  Time now = 0.0;
  bool stopped = false;
  std::size_t holder_count = 0;
  std::vector<bool> token_view;
  std::string config;     ///< final global config, printed losslessly
  std::string telemetry;  ///< Telemetry JSON (empty if not recorded)
};

/// CoverageStats comparison. Doubles are compared with EXPECT_EQ on
/// purpose: the contract is byte-identity, not tolerance.
void expect_same(const RunRecord& ref, const RunRecord& got,
                 const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(ref.stats.observed_time, got.stats.observed_time);
  EXPECT_EQ(ref.stats.zero_token_time, got.stats.zero_token_time);
  EXPECT_EQ(ref.stats.zero_intervals, got.stats.zero_intervals);
  EXPECT_EQ(ref.stats.min_holders, got.stats.min_holders);
  EXPECT_EQ(ref.stats.max_holders, got.stats.max_holders);
  EXPECT_EQ(ref.stats.events, got.stats.events);
  EXPECT_EQ(ref.stats.deliveries, got.stats.deliveries);
  EXPECT_EQ(ref.stats.transmissions, got.stats.transmissions);
  EXPECT_EQ(ref.stats.losses, got.stats.losses);
  EXPECT_EQ(ref.stats.rule_executions, got.stats.rule_executions);
  EXPECT_EQ(ref.stats.crash_restarts, got.stats.crash_restarts);
  EXPECT_EQ(ref.stats.handovers, got.stats.handovers);
  EXPECT_EQ(ref.now, got.now);
  EXPECT_EQ(ref.stopped, got.stopped);
  EXPECT_EQ(ref.holder_count, got.holder_count);
  EXPECT_EQ(ref.token_view, got.token_view);
  EXPECT_EQ(ref.config, got.config);
  EXPECT_EQ(ref.telemetry, got.telemetry);
}

std::string print_config(const core::SsrConfig& config) {
  std::string out;
  for (const auto& s : config) {
    out += std::to_string(s.x) + (s.rts ? "R" : "r") + (s.tra ? "T" : "t") +
           ";";
  }
  return out;
}

std::string print_config(const std::vector<dijkstra::KStateLocal>& config) {
  std::string out;
  for (const auto& s : config) out += std::to_string(s.x) + ";";
  return out;
}

std::string print_config(const std::vector<dijkstra::DualLocal>& config) {
  std::string out;
  for (const auto& s : config) {
    out += std::to_string(s.a) + "/" + std::to_string(s.b) + ";";
  }
  return out;
}

/// Runs @p sim for @p duration, recording telemetry when @p telemetry.
template <typename Sim>
RunRecord run_fixed(Sim& sim, Time duration, bool telemetry) {
  RunRecord rec;
  runtime::Telemetry t(sim.size());
  if (telemetry) {
    t.set_context("cst-parallel-test", "cst", 1);
    sim.set_observer([&t](Time from, Time /*to*/,
                          const std::vector<bool>& holders) {
      t.observe(from * 1000.0, holders);
    });
  }
  rec.stats = sim.run(duration);
  if (telemetry) {
    t.finish(sim.fault_clock_us());
    t.set_aggregates(rec.stats.transmissions, rec.stats.losses,
                     rec.stats.deliveries, rec.stats.rule_executions);
    rec.telemetry = t.to_json_string();
  }
  rec.now = sim.now();
  rec.holder_count = sim.holder_count();
  rec.token_view = sim.token_view();
  rec.config = print_config(sim.global_config());
  return rec;
}

void run_ssrmin_scenario(const NetworkParams& base, Time duration,
                         bool randomize, bool telemetry,
                         const std::string& label) {
  core::SsrMinRing ring(11, 12);
  RunRecord ref;
  for (std::size_t w : kWorkerCounts) {
    NetworkParams net = base;
    net.workers = w;
    auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), net);
    EXPECT_EQ(sim.workers(), w);
    if (randomize) {
      sim.randomize_caches([](Rng& r) {
        core::SsrState s;
        s.x = static_cast<std::uint32_t>(r.below(12));
        s.rts = r.bernoulli(0.5);
        s.tra = r.bernoulli(0.5);
        return s;
      });
    }
    RunRecord rec = run_fixed(sim, duration, telemetry);
    if (w == kWorkerCounts[0]) {
      ref = rec;
      // The reference run must have actually simulated something.
      EXPECT_GT(ref.stats.events, 0u);
    } else {
      expect_same(ref, rec, label + " workers=" + std::to_string(w));
    }
  }
}

TEST(CstParallel, SsrMinFaultFree) {
  run_ssrmin_scenario(base_net(21), 400.0, false, false, "fault-free");
}

TEST(CstParallel, SsrMinLossAndDuplication) {
  NetworkParams net = base_net(22);
  net.loss_probability = 0.15;
  net.duplicate_probability = 0.1;
  run_ssrmin_scenario(net, 600.0, true, false, "loss+dup");
}

TEST(CstParallel, SsrMinExponentialTailDelays) {
  NetworkParams net = base_net(23);
  net.delay_model = DelayModel::kExponentialTail;
  net.delay_max = 3.0;
  run_ssrmin_scenario(net, 400.0, true, false, "exp-tail");
}

TEST(CstParallel, SsrMinFaultPlanWithCrashWindows) {
  // microseconds_per_tick = 1000, so tick t is millisecond t on the fault
  // clock: two crash windows, a pause and background probabilistic faults
  // all land inside the 600-tick run.
  NetworkParams net = base_net(24);
  net.loss_probability = 0.05;
  net.fault_plan = runtime::FaultPlan::parse(
      "drop=0.05;dup=0.03;reorder=0.02;"
      "crash@100ms-140ms:node=3;crash@250ms-300ms:node=7;"
      "pause@400ms-430ms:node=0;burst@480ms-500ms");
  run_ssrmin_scenario(net, 600.0, true, false, "fault-plan");
}

TEST(CstParallel, TelemetryJsonByteIdentical) {
  NetworkParams net = base_net(25);
  net.loss_probability = 0.1;
  net.fault_plan =
      runtime::FaultPlan::parse("crash@120ms-170ms:node=5;drop=0.04");
  run_ssrmin_scenario(net, 500.0, true, true, "telemetry");
}

TEST(CstParallel, DijkstraKStateWithLoss) {
  dijkstra::KStateRing ring(11, 12);
  NetworkParams base = base_net(26);
  base.loss_probability = 0.2;
  RunRecord ref;
  for (std::size_t w : kWorkerCounts) {
    NetworkParams net = base;
    net.workers = w;
    auto sim = make_kstate_cst(ring, dijkstra::KStateConfig(11), net);
    sim.randomize_caches([](Rng& r) {
      dijkstra::KStateLocal s;
      s.x = static_cast<std::uint32_t>(r.below(12));
      return s;
    });
    RunRecord rec = run_fixed(sim, 500.0, false);
    if (w == kWorkerCounts[0]) {
      ref = rec;
      EXPECT_GT(ref.stats.events, 0u);
    } else {
      expect_same(ref, rec, "dijkstra workers=" + std::to_string(w));
    }
  }
}

TEST(CstParallel, DualDijkstra) {
  dijkstra::DualKStateRing ring(10, 11);
  RunRecord ref;
  for (std::size_t w : kWorkerCounts) {
    NetworkParams net = base_net(27);
    net.loss_probability = 0.1;
    net.workers = w;
    auto sim = make_dual_cst(ring, dijkstra::DualConfig(10), net);
    RunRecord rec = run_fixed(sim, 400.0, false);
    if (w == kWorkerCounts[0]) {
      ref = rec;
      EXPECT_GT(ref.stats.events, 0u);
    } else {
      expect_same(ref, rec, "dual workers=" + std::to_string(w));
    }
  }
}

TEST(CstParallel, RunUntilStopsAtTheSameRound) {
  // run_until evaluates its predicate at round horizons, which are a
  // function of event times only — so the stop instant (and the partial
  // stats) must also be worker-count-independent.
  core::SsrMinRing ring(9, 10);
  RunRecord ref;
  for (std::size_t w : kWorkerCounts) {
    NetworkParams net = base_net(28);
    net.loss_probability = 0.25;
    net.workers = w;
    auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), net);
    sim.randomize_caches([](Rng& r) {
      core::SsrState s;
      s.x = static_cast<std::uint32_t>(r.below(10));
      s.rts = r.bernoulli(0.5);
      s.tra = r.bernoulli(0.5);
      return s;
    });
    RunRecord rec;
    auto stop = [&ring](const CstSimulation<core::SsrMinRing>& s) {
      return s.coherent() && core::is_legitimate(ring, s.global_config());
    };
    rec.stats = sim.run_until(stop, 50000.0, &rec.stopped);
    rec.now = sim.now();
    rec.holder_count = sim.holder_count();
    rec.token_view = sim.token_view();
    rec.config = print_config(sim.global_config());
    if (w == kWorkerCounts[0]) {
      ref = rec;
      EXPECT_TRUE(ref.stopped);
      EXPECT_LT(ref.now, 50000.0);
    } else {
      expect_same(ref, rec, "run_until workers=" + std::to_string(w));
    }
  }
}

TEST(CstParallel, ConsecutiveWindowsStayAligned) {
  // Multiple run() windows on one simulation: per-window stats and the
  // carried-over engine state must stay identical, not just a single shot.
  core::SsrMinRing ring(10, 11);
  std::vector<RunRecord> ref;
  for (std::size_t w : kWorkerCounts) {
    NetworkParams net = base_net(29);
    net.loss_probability = 0.1;
    net.duplicate_probability = 0.05;
    net.workers = w;
    auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), net);
    std::vector<RunRecord> windows;
    for (int k = 0; k < 3; ++k) windows.push_back(run_fixed(sim, 150.0, false));
    if (w == kWorkerCounts[0]) {
      ref = windows;
    } else {
      for (std::size_t k = 0; k < ref.size(); ++k) {
        expect_same(ref[k], windows[k],
                    "window " + std::to_string(k) + " workers=" +
                        std::to_string(w));
      }
    }
  }
}

TEST(CstParallel, WorkerCountIsClampedToRingSize) {
  core::SsrMinRing ring(4, 5);
  NetworkParams net = base_net(30);
  net.workers = 64;
  auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), net);
  EXPECT_EQ(sim.workers(), 4u);
  net.workers = 0;  // hardware concurrency, >= 1 and clamped to n
  auto sim0 = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), net);
  EXPECT_GE(sim0.workers(), 1u);
  EXPECT_LE(sim0.workers(), 4u);
}

}  // namespace
}  // namespace ssr::msgpass

namespace ssr::graph {
namespace {

/// Runs TurauMis on a random 20-node graph under @p base at 1, 2 and 8
/// workers, pins the 2- and 8-worker runs to the one-worker run, and
/// returns the one-worker stats.
msgpass::CoverageStats graph_mis_differential(
    const msgpass::NetworkParams& base) {
  Rng rng(31);
  const Topology g = Topology::random_connected(20, 0.2, rng);
  TurauMis mis(g);
  MisConfig initial;
  for (std::size_t i = 0; i < g.size(); ++i) {
    initial.push_back(MisState{static_cast<MisStatus>(rng.below(3))});
  }
  auto active = [](std::size_t, const MisState& self,
                   std::span<const MisState>) {
    return self.status == MisStatus::kIn;
  };
  struct GraphRecord {
    msgpass::CoverageStats stats;
    msgpass::Time now = 0.0;
    std::size_t active_count = 0;
    std::vector<bool> view;
    MisConfig config;
  };
  GraphRecord ref;
  for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    msgpass::NetworkParams net = base;
    net.workers = w;
    GraphCstSimulation<TurauMis> sim(mis, initial, active, net);
    EXPECT_EQ(sim.workers(), w);
    GraphRecord rec;
    rec.stats = sim.run(400.0);
    rec.now = sim.now();
    rec.active_count = sim.active_count();
    rec.view = sim.active_view();
    rec.config = sim.global_config();
    if (w == 1) {
      ref = rec;
      EXPECT_GT(ref.stats.events, 0u);
    } else {
      SCOPED_TRACE("graph workers=" + std::to_string(w));
      EXPECT_EQ(ref.stats.observed_time, rec.stats.observed_time);
      EXPECT_EQ(ref.stats.zero_token_time, rec.stats.zero_token_time);
      EXPECT_EQ(ref.stats.zero_intervals, rec.stats.zero_intervals);
      EXPECT_EQ(ref.stats.events, rec.stats.events);
      EXPECT_EQ(ref.stats.deliveries, rec.stats.deliveries);
      EXPECT_EQ(ref.stats.transmissions, rec.stats.transmissions);
      EXPECT_EQ(ref.stats.losses, rec.stats.losses);
      EXPECT_EQ(ref.stats.rule_executions, rec.stats.rule_executions);
      EXPECT_EQ(ref.stats.crash_restarts, rec.stats.crash_restarts);
      EXPECT_EQ(ref.stats.handovers, rec.stats.handovers);
      EXPECT_EQ(ref.stats.min_holders, rec.stats.min_holders);
      EXPECT_EQ(ref.stats.max_holders, rec.stats.max_holders);
      EXPECT_EQ(ref.now, rec.now);
      EXPECT_EQ(ref.active_count, rec.active_count);
      EXPECT_EQ(ref.view, rec.view);
      EXPECT_EQ(ref.config, rec.config);
    }
  }
  return ref.stats;
}

TEST(CstParallel, GraphMisDifferential) {
  msgpass::NetworkParams net;
  net.loss_probability = 0.15;
  net.seed = 33;
  graph_mis_differential(net);
}

TEST(CstParallel, GraphMisHonoursDuplication) {
  msgpass::NetworkParams net;
  net.loss_probability = 0.05;
  net.duplicate_probability = 0.2;
  net.seed = 34;
  const msgpass::CoverageStats s = graph_mis_differential(net);
  // A ghost re-delivery is a delivery without a transmission.
  EXPECT_GT(s.deliveries, s.transmissions);
}

TEST(CstParallel, GraphMisHonoursCrashWindows) {
  msgpass::NetworkParams net;
  net.seed = 35;
  net.fault_plan = runtime::FaultPlan::parse(
      "dup=0.03;crash@100ms-140ms:node=3;crash@250ms-300ms:node=7;"
      "pause@320ms-340ms:node=0");
  const msgpass::CoverageStats s = graph_mis_differential(net);
  EXPECT_EQ(s.crash_restarts, 2u);
}

}  // namespace
}  // namespace ssr::graph
