// Tests for the single-ring UDP runtime: one legitimate SSRmin ring of four
// nodes on the multi-ring reactor's kUdp transport — real loopback sockets,
// CRC-framed v2 states. Theorem 3 says such a ring always has 1 or 2 token
// holders. The ring's Telemetry integrates every holder transition, so the
// checks read exact zero-holder dwell and holder bounds, not samples.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <string>
#include <vector>

#include "runtime/fault_plan.hpp"
#include "runtime/reactor.hpp"
#include "wire/codec.hpp"

namespace ssr::runtime {
namespace {

using namespace std::chrono_literals;

/// One legitimate SSRmin ring of four nodes on one UDP shard.
ReactorConfig legit_ring(std::uint64_t seed, const std::string& plan = "") {
  ReactorConfig config;
  config.rings = 1;
  config.nodes = 4;
  config.protocol = RingProtocolKind::kSsrMin;
  config.refresh_interval = 1000us;
  config.seed = seed;
  config.fault_plan = FaultPlan::parse(plan);
  config.transport = ReactorTransport::kUdp;
  config.start = RingStart::kLegitimate;
  config.per_ring_telemetry = true;
  return config;
}

/// Theorem 3: no instant without a holder, never more than two.
void expect_graceful(const Telemetry& t) {
  EXPECT_EQ(t.zero_holder_dwell_us(), 0.0);
  EXPECT_GE(t.min_holders(), 1u);
  EXPECT_LE(t.max_holders(), 2u);
}

TEST(UdpRing, BindsShardSocketsAtConstruction) {
  ReactorConfig config = legit_ring(1);
  config.rings = 4;
  config.shards = 2;
  const MultiRingReactor reactor(config);
  const std::vector<std::uint16_t> ports = reactor.ports();
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_NE(ports[0], 0u);
  EXPECT_NE(ports[1], 0u);
  EXPECT_NE(ports[0], ports[1]);
  config.transport = ReactorTransport::kVirtual;
  EXPECT_TRUE(MultiRingReactor(config).ports().empty());
}

TEST(UdpRing, GracefulHandoverOverRealSockets) {
  MultiRingReactor reactor(legit_ring(3));
  const ReactorReport report = reactor.run(500ms);
  expect_graceful(reactor.ring_telemetry(0));
  EXPECT_GT(report.rule_executions, 10u);
  EXPECT_GT(report.handovers, 0u);
  EXPECT_EQ(report.frames_rejected, 0u);
  // A ring has a handful of frames in flight, far below the socket buffer.
  EXPECT_EQ(report.kernel_rx_drops, 0u);
}

// The timeline starts from the initial holder set at t = 0, not at the
// first holder change: a blackout over the first 20 ms delays that change,
// and the telemetry must still cover the whole run.
TEST(UdpRing, TelemetryCoversTheWholeRun) {
  MultiRingReactor reactor(legit_ring(5, "burst@0ms-20ms"));
  const ReactorReport report = reactor.run(100ms);
  const Telemetry& t = reactor.ring_telemetry(0);
  EXPECT_GE(t.observed_us(), report.duration_us);
  expect_graceful(t);
  ASSERT_EQ(t.window_outcomes().size(), 1u);
  EXPECT_TRUE(t.window_outcomes()[0].recovered);
}

TEST(UdpRing, CorruptedFramesAreRejectedNotApplied) {
  MultiRingReactor reactor(legit_ring(7, "corrupt=0.3"));
  const ReactorReport report = reactor.run(500ms);
  // Roughly 30% of frames were bit-flipped; the checksum must have caught
  // them, and the ring must still have made progress.
  EXPECT_GT(report.frames_rejected, 10u);
  EXPECT_GT(report.frames_received, 10u);
  EXPECT_GT(report.rule_executions, 5u);
  // Corruption behaves as loss: brief stale-view windows are possible but
  // must be rare (Theorem 4 is eventual under loss).
  const Telemetry& t = reactor.ring_telemetry(0);
  ASSERT_GT(t.observed_us(), 0.0);
  EXPECT_LT(t.zero_holder_dwell_us(), 0.05 * t.observed_us());
}

// Under corruption most handovers stall on a lost frame until a refresh
// repairs it. A refresh must be judged unanswered at the time its timer
// was due: the shard loop sleeps up to 1 ms in epoll_wait, so the timer
// fires late, after the answer to the previous refresh has arrived. Judged
// at the firing time, a ring that does answer backs off towards 64x the
// refresh interval and makes a few dozen handovers in 600 ms.
TEST(UdpRing, AnsweredRefreshDoesNotBackOff) {
  MultiRingReactor reactor(legit_ring(19, "corrupt=0.2"));
  const ReactorReport report = reactor.run(600ms);
  EXPECT_GT(report.frames_rejected, 10u);
  EXPECT_GT(report.handovers, 120u);
}

TEST(UdpRing, SyntheticDropsAreCounted) {
  MultiRingReactor reactor(legit_ring(9, "drop=0.25"));
  const ReactorReport report = reactor.run(300ms);
  EXPECT_GT(report.frames_dropped, 5u);
  EXPECT_GT(report.rule_executions, 3u);
  // The accounting is disjoint: frames_sent counts datagrams handed to the
  // kernel, frames_dropped the frames the injector ate before any syscall.
  // Their sum is the attempt count, so the observed drop ratio must sit
  // near the configured probability.
  ASSERT_GT(report.frames_sent, 0u);
  const double attempts =
      static_cast<double>(report.frames_sent + report.frames_dropped);
  EXPECT_NEAR(static_cast<double>(report.frames_dropped) / attempts, 0.25,
              0.12);
}

TEST(UdpRing, BurstWindowRecovers) {
  MultiRingReactor reactor(legit_ring(17, "burst@40ms-90ms"));
  const ReactorReport report = reactor.run(250ms);
  EXPECT_GT(report.frames_dropped, 5u);  // the burst actually dropped frames
  const Telemetry& t = reactor.ring_telemetry(0);
  ASSERT_EQ(t.window_outcomes().size(), 1u);
  EXPECT_TRUE(t.window_outcomes()[0].recovered);
  ASSERT_GT(t.observed_us(), 0.0);
  EXPECT_LT(t.zero_holder_dwell_us(), 0.05 * t.observed_us());
}

// Datagrams queued at the shard before run(): empty, longer than the
// receive buffer (MSG_TRUNC), CRC garbage, a checksum-valid v1 frame, and a
// v2 frame for a ring the reactor does not host. Each one is counted as
// rejected, and none of them perturbs the ring.
TEST(UdpRing, HostileDatagramsAreRejectedNotApplied) {
  MultiRingReactor reactor(legit_ring(15));
  const int attacker = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(attacker, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(reactor.ports().at(0));
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const std::array<std::uint8_t, 600> oversized{};
  std::array<std::uint8_t, 32> garbage{};
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(0xA5u ^ i);
  }
  wire::Bytes state;
  wire::put_state(state, core::SsrState{1, true, false});
  // A v1 frame, which no runtime speaks any more: magic, version 1, sender
  // 3, payload length, payload and a valid CRC-32, but no ring-id.
  wire::Bytes v1 = {wire::kMagic, 1, 3,
                    static_cast<std::uint8_t>(state.size())};
  v1.insert(v1.end(), state.begin(), state.end());
  const std::uint32_t crc = wire::crc32(v1);
  for (int shift = 0; shift < 32; shift += 8) {
    v1.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
  wire::Bytes unknown_ring;
  wire::encode_frame_v2_into(unknown_ring, 12345, 3, state);
  const std::array<wire::ByteView, 5> hostile = {
      wire::ByteView{}, oversized, garbage, v1, unknown_ring};
  constexpr std::size_t kRounds = 20;
  for (std::size_t i = 0; i < kRounds; ++i) {
    for (const wire::ByteView datagram : hostile) {
      ASSERT_EQ(::sendto(attacker, datagram.data(), datagram.size(), 0,
                         reinterpret_cast<sockaddr*>(&dst), sizeof(dst)),
                static_cast<ssize_t>(datagram.size()));
    }
  }
  ::close(attacker);

  const ReactorReport report = reactor.run(300ms);
  EXPECT_EQ(report.frames_rejected, kRounds * hostile.size())
      << "malformed datagrams must be counted, not silently swallowed";
  expect_graceful(reactor.ring_telemetry(0));
  EXPECT_GT(report.rule_executions, 10u);
  EXPECT_GT(report.handovers, 0u);
}

// Checksum-valid frames from node 0 to node 1 whose state the ring's
// protocol cannot hold, queued before run() at a mixed reactor (ring 0
// SSRmin, ring 1 K-state, ring 2 dual): x = K for each protocol, dual
// b = K, an SSRmin flag byte of 4, and each protocol's valid state with
// one trailing byte. Each is counted as rejected against its ring, and
// every ring ends legitimate.
TEST(UdpRing, OutOfRangeStatesAreRejectedNotApplied) {
  ReactorConfig config = legit_ring(21);
  config.rings = 3;
  config.mixed = true;
  const std::uint64_t k = config.nodes + 1;  // modulus 0 means n + 1
  MultiRingReactor reactor(config);

  struct Hostile {
    std::size_t ring;
    wire::Bytes state;  ///< the payload after the destination varint
  };
  auto values = [](std::initializer_list<std::uint64_t> xs,
                   std::initializer_list<std::uint8_t> tail) {
    wire::Bytes out;
    for (const std::uint64_t x : xs) wire::put_varint(out, x);
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
  };
  const std::vector<Hostile> hostile = {
      {0, values({k}, {0})},     // SSRmin x = K
      {0, values({1}, {4})},     // SSRmin flag byte 4
      {0, values({1}, {1, 0})},  // SSRmin state and a trailing byte
      {1, values({k}, {})},      // K-state x = K
      {1, values({1}, {0})},     // K-state state and a trailing byte
      {2, values({k, 1}, {})},   // dual a = K
      {2, values({1, k}, {})},   // dual b = K
      {2, values({1, 1}, {0})},  // dual state and a trailing byte
  };
  const int attacker = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(attacker, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(reactor.ports().at(0));
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::array<std::uint64_t, 3> per_ring{};
  for (const Hostile& h : hostile) {
    wire::Bytes payload;
    wire::put_varint(payload, 1);  // destination: node 0's successor
    payload.insert(payload.end(), h.state.begin(), h.state.end());
    wire::Bytes frame;
    wire::encode_frame_v2_into(frame, h.ring, 0, payload);
    ASSERT_EQ(::sendto(attacker, frame.data(), frame.size(), 0,
                       reinterpret_cast<sockaddr*>(&dst), sizeof(dst)),
              static_cast<ssize_t>(frame.size()));
    ++per_ring[h.ring];
  }
  ::close(attacker);

  const ReactorReport report = reactor.run(300ms);
  EXPECT_EQ(report.frames_rejected, hostile.size());
  for (std::size_t r = 0; r < per_ring.size(); ++r) {
    EXPECT_EQ(reactor.table().counters(r).frames_rejected, per_ring[r])
        << "ring " << r;
    EXPECT_TRUE(reactor.table().is_legitimate(r)) << "ring " << r;
  }
  EXPECT_EQ(report.rings_legitimate, 3u);
  expect_graceful(reactor.ring_telemetry(0));
}

}  // namespace
}  // namespace ssr::runtime
