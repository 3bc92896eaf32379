// E12 — engine/simulator microbenchmarks (google-benchmark): cost of a
// composite-atomicity step, legitimacy checking, CST event processing and
// exhaustive model checking. These quantify the "4K states per process"
// lightweight-state claim of Theorem 1 in engineering terms: protocol
// steps are tens of nanoseconds, so the simulator sustains millions of
// daemon steps per second.
#include <benchmark/benchmark.h>

#include "core/legitimacy.hpp"
#include "core/ssrmin.hpp"
#include "dijkstra/kstate.hpp"
#include "graph/mis.hpp"
#include "graph/protocol.hpp"
#include "msgpass/factories.hpp"
#include "stabilizing/daemon.hpp"
#include "stabilizing/engine.hpp"
#include "verify/checkers.hpp"
#include "wire/codec.hpp"

namespace {

using namespace ssr;

void BM_SsrMinStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto K = static_cast<std::uint32_t>(n + 1);
  const core::SsrMinRing ring(n, K);
  stab::Engine<core::SsrMinRing> engine(ring,
                                        core::canonical_legitimate(ring, 0));
  stab::CentralRoundRobinDaemon daemon;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step_with(daemon));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SsrMinStep)->Arg(8)->Arg(64)->Arg(512)->Arg(1024);

void BM_DijkstraStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto K = static_cast<std::uint32_t>(n + 1);
  const dijkstra::KStateRing ring(n, K);
  stab::Engine<dijkstra::KStateRing> engine(ring, dijkstra::KStateConfig(n));
  stab::CentralRoundRobinDaemon daemon;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step_with(daemon));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DijkstraStep)->Arg(8)->Arg(64)->Arg(512);

void BM_SsrMinSynchronousStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto K = static_cast<std::uint32_t>(n + 1);
  const core::SsrMinRing ring(n, K);
  Rng rng(5);
  stab::Engine<core::SsrMinRing> engine(ring, core::random_config(ring, rng));
  stab::SynchronousDaemon daemon;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step_with(daemon));
  }
  // Moves per second is the interesting figure under maximal concurrency.
  state.SetItemsProcessed(static_cast<std::int64_t>(engine.moves()));
}
BENCHMARK(BM_SsrMinSynchronousStep)->Arg(64)->Arg(512);

void BM_LegitimacyCheck(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto K = static_cast<std::uint32_t>(n + 1);
  const core::SsrMinRing ring(n, K);
  const core::SsrConfig config = core::canonical_legitimate(ring, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::is_legitimate(ring, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LegitimacyCheck)->Arg(8)->Arg(64)->Arg(512);

void BM_TokenCount(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto K = static_cast<std::uint32_t>(n + 1);
  const core::SsrMinRing ring(n, K);
  Rng rng(9);
  const core::SsrConfig config = core::random_config(ring, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::privileged_count(ring, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TokenCount)->Arg(8)->Arg(64)->Arg(512);

void BM_CstEvents(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto K = static_cast<std::uint32_t>(n + 1);
  const core::SsrMinRing ring(n, K);
  msgpass::NetworkParams params;
  params.seed = 3;
  auto sim = msgpass::make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0),
                                      params);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto stats = sim.run(10.0);
    events += stats.events;
    benchmark::DoNotOptimize(stats.events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_CstEvents)->Arg(8)->Arg(32)->Arg(128);

void BM_ModelCheckN3K4(benchmark::State& state) {
  for (auto _ : state) {
    auto checker = verify::make_ssrmin_checker(3, 4);
    const auto report = checker.run();
    benchmark::DoNotOptimize(report.worst_case_steps);
  }
  state.SetLabel("4096 configs, full distributed-daemon graph");
}
BENCHMARK(BM_ModelCheckN3K4);

/// The reactor's send path: an SSRmin payload and its frame, encoded into
/// reused buffers.
void BM_WireEncodeFrame(benchmark::State& state) {
  const core::SsrState s{42, true, false};
  wire::Bytes payload;
  wire::Bytes frame;
  for (auto _ : state) {
    payload.clear();
    wire::put_varint(payload, 1);
    wire::put_state(payload, s);
    frame.clear();
    wire::encode_frame_v2_into(frame, 7, 0, payload);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WireEncodeFrame);

/// The reactor's receive path: the frame parsed in place.
void BM_WireDecodeFrame(benchmark::State& state) {
  wire::Bytes payload;
  wire::put_varint(payload, 1);
  wire::put_state(payload, core::SsrState{42, true, false});
  wire::Bytes frame;
  wire::encode_frame_v2_into(frame, 7, 0, payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::decode_frame_view(frame));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WireDecodeFrame);

void BM_MisGraphStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const auto topo = graph::Topology::random_connected(n, 0.1, rng);
  graph::TurauMis mis(topo);
  graph::GraphEngine<graph::TurauMis> engine(mis,
                                             graph::random_config(topo, rng));
  stab::SynchronousDaemon daemon;
  for (auto _ : state) {
    if (!engine.step_with(daemon)) {
      // Silent: perturb a node to keep the benchmark busy.
      engine.corrupt(rng.below(n),
                     graph::MisState{static_cast<graph::MisStatus>(
                         rng.below(3))});
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MisGraphStep)->Arg(32)->Arg(256);

void BM_ConvergenceFromRandom(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto K = static_cast<std::uint32_t>(n + 1);
  const core::SsrMinRing ring(n, K);
  Rng rng(31);
  for (auto _ : state) {
    stab::Engine<core::SsrMinRing> engine(ring,
                                          core::random_config(ring, rng));
    stab::CentralRandomDaemon daemon{rng.split()};
    auto legit = [&ring](const core::SsrConfig& c) {
      return core::is_legitimate(ring, c);
    };
    const auto r = stab::run_until(engine, daemon, legit, 80ULL * n * n + 400);
    benchmark::DoNotOptimize(r.steps);
  }
}
BENCHMARK(BM_ConvergenceFromRandom)->Arg(8)->Arg(32);

}  // namespace
