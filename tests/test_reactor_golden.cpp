// Golden trajectories for the multi-ring reactor's virtual transport.
// test_multiring.cpp checks that a seeded run repeats itself and that rings
// stabilize; it cannot see a change that moves every run the same way. This
// test pins two runs against constants recorded from an earlier reactor,
// which copied every frame into its own heap buffer and kept a hash set of
// live timer ids:
//   * a small reactor-10k: 300 mixed rings from random states with 1% loss;
//   * 128 mixed rings with per-ring telemetry under a plan that drops,
//     duplicates, reorders and corrupts frames and has burst, partition
//     and crash windows.
// Every ReactorReport field is compared exactly (doubles in hex), together
// with a 64-bit FNV-1a digest of every ring's final node states and one of
// the telemetry JSON.
//
// The same binary counts calls to the global operator new while the first
// run executes: the virtual transport's per-frame path must not allocate,
// and neither may the end-of-run report per ring.
//
// On a mismatch the failure message shows the run's record in the same form
// as the golden string. A change that is meant to alter trajectories
// replaces the golden strings with those records and says so.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "runtime/fault_plan.hpp"
#include "runtime/reactor.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Replacing the global allocation functions counts every operator new in
// the process. The deletes are replaced too, so that every block is
// released by the allocator that made it (sanitizers check the pairing).
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ssr::runtime {
namespace {

using std::chrono::milliseconds;

ReactorConfig mixed(std::size_t rings, std::uint64_t seed) {
  ReactorConfig config;
  config.rings = rings;
  config.nodes = 4;
  config.mixed = true;
  config.shards = 1;
  config.seed = seed;
  config.transport = ReactorTransport::kVirtual;
  config.start = RingStart::kRandom;
  return config;
}

/// reactor-10k in small: 300 rings, 1% i.i.d. loss.
ReactorConfig small_reactor_10k() {
  ReactorConfig config = mixed(300, 1);
  config.fault_plan.probabilities.drop = 0.01;
  return config;
}

/// Every fault kind the reactor injects, with per-ring telemetry.
ReactorConfig faulty_with_telemetry() {
  ReactorConfig config = mixed(128, 2);
  config.per_ring_telemetry = true;
  config.fault_plan = FaultPlan::parse(
      "drop=0.02;dup=0.02;reorder=0.02;corrupt=0.02;burst@20ms-26ms;"
      "partition@30ms-36ms:cut=0/2;crash@50ms-51ms:node=1");
  return config;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h ^= (value >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) h = fnv1a(h, static_cast<unsigned char>(c), 1);
  return h;
}

std::uint64_t state_digest(const MultiRingReactor& reactor) {
  const RingTable& table = reactor.table();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t r = 0; r < table.num_rings(); ++r) {
    for (std::size_t i = 0; i < table.nodes_per_ring(); ++i) {
      const NodeState& s = table.state(r, i);
      h = fnv1a(h, s.a, 4);
      h = fnv1a(h, s.b, 4);
      h = fnv1a(h, s.flags, 1);
    }
  }
  return h;
}

std::string describe(const MultiRingReactor& reactor,
                     const ReactorReport& r) {
  std::ostringstream os;
  os << "rings=" << r.rings << " nodes=" << r.nodes << " shards=" << r.shards
     << std::hexfloat << " duration_us=" << r.duration_us << std::defaultfloat
     << " sent=" << r.frames_sent << " dropped=" << r.frames_dropped
     << " duplicated=" << r.frames_duplicated
     << " reordered=" << r.frames_reordered
     << " corrupted=" << r.frames_corrupted
     << " received=" << r.frames_received
     << " rejected=" << r.frames_rejected
     << " send_errors=" << r.send_errors
     << " kernel_rx_drops=" << r.kernel_rx_drops
     << " rule_executions=" << r.rule_executions
     << " crash_restarts=" << r.crash_restarts
     << " refresh=" << r.refresh_broadcasts << " handovers=" << r.handovers
     << std::hexfloat << " per_sec=" << r.handovers_per_sec
     << " p50=" << r.p50_us << " p99=" << r.p99_us << " p999=" << r.p999_us
     << std::defaultfloat << " legitimate=" << r.rings_legitimate
     << " with_holder=" << r.rings_with_holder << std::hex
     << " states=" << state_digest(reactor)
     << " telemetry=" << fnv1a(reactor.telemetry_json(r).dump());
  return os.str();
}

std::string run(const ReactorConfig& config, milliseconds duration) {
  MultiRingReactor reactor(config);
  const ReactorReport report = reactor.run(duration);
  return describe(reactor, report);
}

TEST(ReactorGolden, SmallReactor10k) {
  EXPECT_EQ(run(small_reactor_10k(), milliseconds(10)),
            "rings=300 nodes=4 shards=1 duration_us=0x1.388p+13 sent=83601"
            " dropped=901 duplicated=0 reordered=0 corrupted=0"
            " received=83327 rejected=0 send_errors=0 kernel_rx_drops=0"
            " rule_executions=40403 crash_restarts=0 refresh=162"
            " handovers=31819 per_sec=0x1.846a6p+21 p50=0x1.9p+5"
            " p99=0x1.3p+7 p999=0x1.5p+12 legitimate=300 with_holder=300"
            " states=239698905cc4ad6e telemetry=af5166c79df8f500");
}

TEST(ReactorGolden, EveryFaultKindWithTelemetry) {
  EXPECT_EQ(run(faulty_with_telemetry(), milliseconds(80)),
            "rings=128 nodes=4 shards=1 duration_us=0x1.388p+16 sent=59135"
            " dropped=1994 duplicated=1189 reordered=1090 corrupted=1199"
            " received=57879 rejected=1226 send_errors=0 kernel_rx_drops=0"
            " rule_executions=25664 crash_restarts=128 refresh=949"
            " handovers=19958 per_sec=0x1.e7418p+17 p50=0x1.9p+5"
            " p99=0x1.3p+13 p999=0x1.3p+15 legitimate=128 with_holder=127"
            " states=91000ca34e15a04e telemetry=5b6d86b8727c57fb");
}

TEST(ReactorGolden, VirtualFramePathDoesNotAllocate) {
  MultiRingReactor reactor(small_reactor_10k());
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  const ReactorReport report = reactor.run(milliseconds(10));
  const std::uint64_t news = g_news.load(std::memory_order_relaxed) - before;
  ASSERT_GT(report.frames_sent, 10'000u);
  EXPECT_LT(news * 100, report.frames_sent)
      << news << " calls to operator new for " << report.frames_sent
      << " frames sent";
}

// The end-of-run report judges every ring's legitimacy. That must not
// allocate either: ten times the rings over the same run may not cost an
// allocation per added ring.
TEST(ReactorGolden, RunAllocationsDoNotGrowPerRing) {
  const auto news_during_run = [](std::size_t rings) {
    ReactorConfig config = small_reactor_10k();
    config.rings = rings;
    MultiRingReactor reactor(config);
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    reactor.run(milliseconds(10));
    return g_news.load(std::memory_order_relaxed) - before;
  };
  const std::uint64_t small = news_during_run(300);
  const std::uint64_t large = news_during_run(3000);
  EXPECT_LT(large, small + (3000 - 300))
      << large << " calls to operator new at 3000 rings against " << small
      << " at 300";
}

}  // namespace
}  // namespace ssr::runtime
