// Multi-ring reactor tests: hundreds of independent rings multiplexed on
// one event loop must each behave exactly like a single-ring runtime —
// stabilize from arbitrary states, survive per-ring scripted faults, and
// (virtual transport) reproduce telemetry byte-for-byte from the seed.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "runtime/fault_plan.hpp"
#include "runtime/reactor.hpp"

namespace ssr::runtime {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

ReactorConfig mixed_config(std::size_t rings, std::uint64_t seed) {
  ReactorConfig config;
  config.rings = rings;
  config.nodes = 4;
  config.mixed = true;  // cycle ssrmin / kstate / dual across rings
  config.transport = ReactorTransport::kVirtual;
  config.start = RingStart::kRandom;
  config.seed = seed;
  config.refresh_interval = microseconds(5000);
  return config;
}

// 256 mixed-protocol rings from random configurations: every single ring
// must converge to a legitimate configuration with at least one token
// holder, and tokens must keep circulating (handovers accumulate).
TEST(MultiRing, MixedRingsAllStabilizeFromRandomStates) {
  MultiRingReactor reactor(mixed_config(256, 42));
  const ReactorReport report = reactor.run(milliseconds(120));

  EXPECT_EQ(report.rings, 256u);
  EXPECT_EQ(report.rings_legitimate, 256u) << "some rings never stabilized";
  EXPECT_EQ(report.rings_with_holder, 256u);
  EXPECT_GT(report.handovers, 256u * 10);
  EXPECT_GT(report.frames_sent, 0u);
  EXPECT_GT(report.frames_received, 0u);
  EXPECT_GT(report.handovers_per_sec, 0.0);
  // Token circulation means handover intervals were recorded.
  EXPECT_GT(report.p50_us, 0.0);
  EXPECT_GE(report.p99_us, report.p50_us);
  EXPECT_GE(report.p999_us, report.p99_us);

  // Per-ring: every ring executed rules and gained tokens independently.
  for (std::size_t r = 0; r < 256; ++r) {
    EXPECT_TRUE(reactor.table().is_legitimate(r)) << "ring " << r;
    EXPECT_GT(reactor.table().counters(r).handovers, 0u) << "ring " << r;
  }
}

// Scripted fault windows apply to each ring independently: burst loss,
// a ring partition and two crash-restarts with state reset. Every ring
// must re-stabilize after the last window closes.
TEST(MultiRing, ScriptedCrashAndPartitionWindowsReStabilize) {
  ReactorConfig config = mixed_config(256, 7);
  config.fault_plan = FaultPlan::parse(
      "burst@20ms-26ms;"
      "partition@30ms-36ms:cut=0/2;"
      "crash@50ms-51ms:node=1;"
      "crash@70ms-71ms:node=2");
  MultiRingReactor reactor(config);
  const ReactorReport report = reactor.run(milliseconds(160));

  // Both crash windows fired on every ring.
  EXPECT_EQ(report.crash_restarts, 2u * 256u);
  // Burst loss actually dropped traffic.
  EXPECT_GT(report.frames_dropped, 0u);
  // Loss-recovery refreshes kicked idle rings back to life.
  EXPECT_GT(report.refresh_broadcasts, 0u);
  // And every ring recovered to a legitimate circulating state.
  EXPECT_EQ(report.rings_legitimate, 256u) << "a ring failed to re-stabilize";
  EXPECT_EQ(report.rings_with_holder, 256u);
  for (std::size_t r = 0; r < 256; ++r) {
    EXPECT_TRUE(reactor.table().is_legitimate(r)) << "ring " << r;
    EXPECT_EQ(reactor.table().counters(r).crash_restarts, 2u) << "ring " << r;
  }
}

// The virtual transport is a pure function of (config, seed): two reactors
// with identical configs must produce byte-identical telemetry JSON,
// including per-ring PR-3 Telemetry blocks, and a different seed must not.
TEST(MultiRing, SeededTelemetryJsonIsByteDeterministic) {
  ReactorConfig config = mixed_config(48, 20260809);
  config.per_ring_telemetry = true;
  config.fault_plan = FaultPlan::parse("drop=0.02;crash@15ms-16ms:node=0");

  MultiRingReactor a(config);
  MultiRingReactor b(config);
  const ReactorReport ra = a.run(milliseconds(60));
  const ReactorReport rb = b.run(milliseconds(60));
  EXPECT_EQ(ra.handovers, rb.handovers);
  EXPECT_EQ(ra.frames_sent, rb.frames_sent);
  EXPECT_EQ(ra.rule_executions, rb.rule_executions);

  const std::string ja = a.telemetry_json(ra).dump(2);
  const std::string jb = b.telemetry_json(rb).dump(2);
  EXPECT_EQ(ja, jb) << "seeded virtual runs must be byte-reproducible";
  EXPECT_NE(ja.find("\"schema\": \"ssr-multiring-telemetry-v1\""),
            std::string::npos);
  EXPECT_NE(ja.find("ssr-telemetry-v1"), std::string::npos)
      << "per-ring PR-3 telemetry blocks missing";

  ReactorConfig other = config;
  other.seed = 99;
  MultiRingReactor c(other);
  const ReactorReport rc = c.run(milliseconds(60));
  EXPECT_NE(ja, c.telemetry_json(rc).dump(2))
      << "different seeds should diverge";
}

// A plan whose windows never match must consume zero RNG draws on the
// frame path: a run with no plan at all and a run with a far-future
// window must produce identical protocol evolution.
TEST(MultiRing, InertFaultPlanDoesNotPerturbDeterminism) {
  ReactorConfig bare = mixed_config(32, 5);
  ReactorConfig inert = mixed_config(32, 5);
  // Window far beyond the run: matches nothing, but exercises the
  // window-scan path on every frame.
  inert.fault_plan = FaultPlan::parse("burst@10s-11s");

  MultiRingReactor a(bare);
  MultiRingReactor b(inert);
  const ReactorReport ra = a.run(milliseconds(40));
  const ReactorReport rb = b.run(milliseconds(40));
  EXPECT_EQ(ra.handovers, rb.handovers);
  EXPECT_EQ(ra.frames_sent, rb.frames_sent);
  EXPECT_EQ(ra.rule_executions, rb.rule_executions);
  for (std::size_t r = 0; r < 32; ++r) {
    EXPECT_EQ(a.table().holder_mask(r), b.table().holder_mask(r))
        << "ring " << r;
  }
}

// Legitimate-start rings never lose legitimacy under a clean transport
// (closure of the legitimate set, multi-ring edition).
TEST(MultiRing, LegitimateStartStaysLegitimate) {
  ReactorConfig config = mixed_config(64, 3);
  config.start = RingStart::kLegitimate;
  MultiRingReactor reactor(config);
  const ReactorReport report = reactor.run(milliseconds(50));
  EXPECT_EQ(report.rings_legitimate, 64u);
  EXPECT_EQ(report.rings_with_holder, 64u);
  EXPECT_GT(report.handovers, 0u);
}

// The real epoll/recvmmsg path: shard threads on loopback sockets. Timing
// is nondeterministic, so assertions are structural — traffic flowed,
// rings stabilized, and kernel-buffer drops are surfaced (not asserted
// zero: a loaded CI box may overflow, which is exactly what the counter
// is for).
TEST(MultiRing, UdpTransportHostsRingsOnSharedSockets) {
  ReactorConfig config = mixed_config(64, 11);
  config.transport = ReactorTransport::kUdp;
  config.shards = 2;
  config.refresh_interval = microseconds(2000);
  MultiRingReactor reactor(config);
  const ReactorReport report = reactor.run(milliseconds(400));

  EXPECT_EQ(report.shards, 2u);
  EXPECT_GT(report.frames_sent, 0u);
  EXPECT_GT(report.frames_received, 0u);
  EXPECT_GT(report.handovers, 0u);
  // Loopback with refresh recovery: every ring stabilizes in 400ms
  // (refresh makes this robust even if early bursts overflowed the
  // socket buffer).
  EXPECT_EQ(report.rings_legitimate, 64u);
  EXPECT_EQ(report.rings_with_holder, 64u);
}

// run() rejects a duration that is not positive, and the rejection leaves
// the reactor runnable. A negative duration cast to an unsigned deadline
// would otherwise run for about 2^64 microseconds.
TEST(MultiRing, RunRejectsANonPositiveDuration) {
  MultiRingReactor reactor(mixed_config(4, 1));
  EXPECT_THROW(reactor.run(milliseconds(-1)), std::invalid_argument);
  EXPECT_THROW(reactor.run(microseconds(0)), std::invalid_argument);
  EXPECT_EQ(reactor.run(milliseconds(1)).rings, 4u);
}

// validate() rejects geometries the table cannot host.
TEST(MultiRing, ConfigValidation) {
  ReactorConfig config;
  config.nodes = 2;  // < 3
  EXPECT_THROW(config.validate(), std::exception);
  config.nodes = 65;  // > 64 (holder bitmask)
  EXPECT_THROW(config.validate(), std::exception);
  config.nodes = 4;
  config.modulus = 4;  // K must exceed n
  EXPECT_THROW(config.validate(), std::exception);
  config.modulus = 0;
  config.rings = 0;
  EXPECT_THROW(config.validate(), std::exception);
}

}  // namespace
}  // namespace ssr::runtime
