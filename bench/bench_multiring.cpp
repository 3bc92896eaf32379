// E27 — multi-ring reactor scaling: how many independent SSRmin rings can
// one epoll event loop host, and what does token-handover latency look
// like when 1k/10k/100k rings share a handful of sockets and threads?
//
// A udp row runs the real UDP transport (epoll + recvmmsg/sendmmsg, v2
// wire frames) for a fixed wall-clock window and reports the aggregate
// handover rate plus the p50/p99/p99.9 handover inter-arrival latency
// across all rings. The per-ring protocol work is identical to the
// single-ring runtimes; the only thing that changes with scale is how
// often each ring gets the loop's attention — which is exactly what the
// latency tail measures.
//
// A virtual row runs perfbench reactor-10k's workload (mixed protocols,
// 1% i.i.d. loss) on the deterministic virtual transport for a few
// virtual milliseconds: no sockets, so ns_per_frame (wall ns of run()
// over frames sent) is the reactor's own per-frame cost. Every row
// records the host's hardware thread count (nproc).
//
//   --smoke        tiny run for CI gating (exit 1 on structural failure)
//   --full         udp and virtual rows at 1k/10k/100k rings (also
//                  SSRING_BENCH_FULL=1)
//   --json FILE    write the table as JSON rows (BENCH_multiring.json)
#include <chrono>
#include <cstring>
#include <thread>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runtime/reactor.hpp"
#include "util/table.hpp"

namespace {

using namespace ssr;

using runtime::ReactorTransport;

struct ScaleRow {
  ReactorTransport transport;
  std::size_t rings;
  std::size_t shards;
  std::chrono::milliseconds duration;
};

struct Measured {
  runtime::ReactorReport report;
  double wall_ns = 0.0;  ///< of run()
};

Measured run_scale(const ScaleRow& row) {
  runtime::ReactorConfig config;
  config.rings = row.rings;
  config.nodes = 4;
  config.shards = row.shards;
  config.transport = row.transport;
  config.start = runtime::RingStart::kRandom;
  config.seed = 27;
  config.refresh_interval = std::chrono::microseconds(5000);
  if (row.transport == ReactorTransport::kVirtual) {
    config.mixed = true;
    config.fault_plan.probabilities.drop = 0.01;
  } else {
    config.protocol = runtime::RingProtocolKind::kSsrMin;
  }
  runtime::MultiRingReactor reactor(config);
  Measured m;
  const auto t0 = std::chrono::steady_clock::now();
  m.report = reactor.run(
      std::chrono::duration_cast<std::chrono::microseconds>(row.duration));
  m.wall_ns = std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return m;
}

void add_row(TextTable& table, const ScaleRow& scale, const Measured& m) {
  const runtime::ReactorReport& r = m.report;
  table.row()
      .cell(runtime::to_string(scale.transport))
      .cell(r.rings)
      .cell(r.shards)
      .cell(static_cast<std::size_t>(std::thread::hardware_concurrency()))
      .cell(static_cast<std::uint64_t>(scale.duration.count()))
      .cell(r.handovers)
      .cell(r.handovers_per_sec, 0)
      .cell(r.p50_us, 1)
      .cell(r.p99_us, 1)
      .cell(r.p999_us, 1)
      .cell(r.frames_sent)
      .cell(r.frames_received)
      .cell(r.kernel_rx_drops)
      .cell(r.rings_legitimate)
      .cell(m.wall_ns / static_cast<double>(r.frames_sent), 1);
}

int smoke() {
  const ScaleRow scale{ReactorTransport::kUdp, 256, 2,
                       std::chrono::milliseconds(150)};
  const runtime::ReactorReport r = run_scale(scale).report;
  const bool ok = r.handovers > 0 && r.frames_received > 0 &&
                  r.rings_legitimate > 200 && r.shards == 2;
  std::cout << "bench_multiring smoke: rings=" << r.rings
            << " legit=" << r.rings_legitimate << " handovers=" << r.handovers
            << " handovers/s=" << static_cast<std::uint64_t>(
                   r.handovers_per_sec)
            << " p99_us=" << r.p99_us << (ok ? " OK" : " FAIL") << '\n';
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return smoke();
  }
  bool full = bench::full_mode();
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }

  bench::print_header(
      "E27 multi-ring reactor scaling",
      "section 6 runtime discussion (extended)",
      "one epoll loop with <= 4 shard threads hosts 1k-100k independent "
      "rings; aggregate handover throughput grows with ring count while "
      "the per-ring latency tail degrades gracefully");

  using std::chrono::milliseconds;
  constexpr ReactorTransport kUdp = ReactorTransport::kUdp;
  constexpr ReactorTransport kVirtual = ReactorTransport::kVirtual;
  std::vector<ScaleRow> scales;
  if (full) {
    scales = {{kUdp, 1000, 4, milliseconds(1000)},
              {kUdp, 10000, 4, milliseconds(1000)},
              {kUdp, 100000, 4, milliseconds(2000)},
              {kVirtual, 1000, 1, milliseconds(10)},
              {kVirtual, 10000, 1, milliseconds(10)},
              {kVirtual, 100000, 1, milliseconds(2)}};
  } else {
    scales = {{kUdp, 1000, 2, milliseconds(300)},
              {kUdp, 10000, 4, milliseconds(400)},
              {kVirtual, 1000, 1, milliseconds(10)}};
  }

  TextTable table({"transport", "rings", "shards", "nproc", "duration_ms",
                   "handovers", "handovers_per_sec", "p50_us", "p99_us",
                   "p999_us", "frames_sent", "frames_received",
                   "kernel_rx_drops", "rings_legitimate", "ns_per_frame"});
  for (const ScaleRow& scale : scales) {
    add_row(table, scale, run_scale(scale));
  }
  std::cout << table.render();
  bench::maybe_export(table, "multiring");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << '\n';
      return 1;
    }
    out << table.to_json(2) << '\n';
    std::cout << "json written to " << json_path << '\n';
  }
  return 0;
}
