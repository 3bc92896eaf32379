// MultiRingReactor: one event loop hosting hundreds of thousands of
// independent self-stabilizing rings over a handful of shared UDP sockets.
//
// A thread per *node* (ThreadedRing: n threads for one ring) caps an
// experiment at a few dozen rings per machine. The reactor inverts that
// topology: rings are partitioned across S shards (ring % S); each shard
// owns ONE nonblocking UDP socket, an epoll instance, a hierarchical timer
// wheel and the dense RingTable rows of its rings. All frames of a shard's
// rings travel through the shard's socket as v2 wire frames (ring-id in the
// header, destination node as the first payload varint), batched with
// recvmmsg/sendmmsg. Per ring there are no threads, no sockets and no heap
// objects, and a frame allocates nothing — just table rows, timer-wheel
// entries and reused buffers — which is what makes 100k+ rings per process
// tractable.
//
// Two transports share all of the protocol machinery:
//
//   * kVirtual — no sockets: frames are carried by timer-wheel entries on
//     a virtual microsecond clock, processed single-threaded in
//     deterministic order. A seeded virtual run is byte-reproducible
//     (telemetry JSON and all), which is what the multiring tests pin.
//     Frames still round-trip through the v2 codec, so the wire path is
//     exercised identically; in flight they sit in a fixed-stride slot
//     arena. This is the transport of the reactor-10k benchmark workload.
//   * kUdp — real loopback sockets, one shard thread per socket, epoll +
//     recvmmsg/sendmmsg, wall-clock fault windows, SK_MEMINFO drop
//     accounting. The sockets are bound at construction. bench_multiring's
//     socket rows run it, and with rings = 1 it is the single-ring UDP
//     runtime (test_udp, bench_runtime's E13 rows).
//
// Fault injection reuses PR 3's machinery unchanged: one read-only
// FaultInjector decides per-frame fates (an empty plan consumes zero RNG
// draws), per-ring crash windows are tracked with a bitmask per ring, and
// per-ring Telemetry objects (optional) ingest every holder transition, as
// ThreadedRing's observation windows do.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/fault_plan.hpp"
#include "runtime/ring_table.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/timer_wheel.hpp"
#include "util/json.hpp"

namespace ssr::runtime {

enum class ReactorTransport : std::uint8_t {
  kVirtual,  ///< deterministic virtual clock, single-threaded
  kUdp,      ///< real loopback UDP, one thread per shard
};

struct ReactorConfig {
  std::size_t rings = 256;
  std::size_t nodes = 4;      ///< per ring; 3..64
  std::uint32_t modulus = 0;  ///< shared K; 0 = nodes + 1
  /// Protocol for every ring; kMixedCycle cycles ssrmin/kstate/dual.
  RingProtocolKind protocol = RingProtocolKind::kSsrMin;
  bool mixed = false;
  std::size_t shards = 1;  ///< reactor shards (threads in kUdp mode)
  /// Loss-recovery refresh: an idle ring rebroadcasts every node's state
  /// after this much inactivity (lazy timers — an active ring's timer
  /// never fires a broadcast).
  std::chrono::microseconds refresh_interval{5000};
  std::uint64_t seed = 1;
  FaultPlan fault_plan;
  ReactorTransport transport = ReactorTransport::kVirtual;
  RingStart start = RingStart::kRandom;
  /// Attach a full PR-3 Telemetry recorder to every ring (holder timeline,
  /// zero-dwell, per-window recovery). Costs ~300 B/ring — fine at test
  /// scale, off by default for 100k-ring benches.
  bool per_ring_telemetry = false;

  void validate() const;
};

/// Aggregate results of a reactor run.
struct ReactorReport {
  std::size_t rings = 0;
  std::size_t nodes = 0;
  std::size_t shards = 0;
  double duration_us = 0.0;

  std::uint64_t frames_sent = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t frames_reordered = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t kernel_rx_drops = 0;
  std::uint64_t rule_executions = 0;
  std::uint64_t crash_restarts = 0;
  std::uint64_t refresh_broadcasts = 0;

  std::uint64_t handovers = 0;
  double handovers_per_sec = 0.0;
  /// Handover inter-arrival percentiles (microseconds) across all rings.
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;

  /// Rings whose ground-truth state is legitimate at the end of the run.
  std::size_t rings_legitimate = 0;
  /// Rings with a live token at the end: a node holds in own-view right
  /// now, or a holder gain was observed within two refresh intervals of
  /// the ring's shard's last loop pass (Dijkstra-style rings consume the
  /// token inside the delivery that grants it, so the holder bit itself is
  /// transient).
  std::size_t rings_with_holder = 0;
};

/// Log-linear histogram for handover intervals: 64 power-of-two major
/// buckets x 8 linear minor buckets (~12% relative resolution), constant
/// memory, O(1) record, exact merge.
class LatencyHistogram {
 public:
  static constexpr std::size_t kMinor = 8;
  static constexpr std::size_t kBuckets = 64 * kMinor;

  void record(std::uint64_t us) {
    ++counts_[bucket_of(us)];
    ++total_;
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  std::uint64_t total() const { return total_; }
  /// Approximate quantile (bucket midpoint), 0 when empty.
  double quantile(double q) const;

 private:
  static std::size_t bucket_of(std::uint64_t us) {
    if (us < kMinor) return static_cast<std::size_t>(us);
    const int exp = 63 - std::countl_zero(us);
    const std::size_t major = static_cast<std::size_t>(exp) - 2;
    const std::size_t minor =
        static_cast<std::size_t>((us >> (exp - 3)) & (kMinor - 1));
    const std::size_t b = major * kMinor + minor;
    return b < kBuckets ? b : kBuckets - 1;
  }
  static double bucket_mid(std::size_t b);

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t total_ = 0;
};

class MultiRingReactor {
 public:
  explicit MultiRingReactor(ReactorConfig config);
  ~MultiRingReactor();

  MultiRingReactor(const MultiRingReactor&) = delete;
  MultiRingReactor& operator=(const MultiRingReactor&) = delete;

  /// Runs the configured transport for @p duration (virtual microseconds
  /// under kVirtual, wall time under kUdp; it must be positive) and
  /// returns the aggregate report. Callable once per reactor instance.
  ReactorReport run(std::chrono::microseconds duration);

  const RingTable& table() const { return *table_; }
  const ReactorConfig& config() const { return config_; }
  /// kUdp: each shard socket's loopback port, so datagrams can be queued
  /// at a shard before run(). Empty under kVirtual.
  std::vector<std::uint16_t> ports() const;
  /// @p ring's holder timeline (requires per_ring_telemetry), complete
  /// once run() has returned.
  const Telemetry& ring_telemetry(std::size_t ring) const;

  /// Per-ring telemetry export (requires per_ring_telemetry). Under the
  /// virtual transport this is a pure function of (config, seed) —
  /// byte-deterministic across runs. Schema "ssr-multiring-telemetry-v1".
  Json telemetry_json(const ReactorReport& report) const;

 private:
  struct Shard;

  void run_virtual(std::chrono::microseconds duration);
  void run_udp(std::chrono::microseconds duration);
  void udp_shard_main(Shard& shard, std::uint64_t deadline_us);
  void check_scripted_faults(std::size_t ring, std::uint64_t now_us);
  void fire_kick(Shard& shard, std::size_t ring, std::uint64_t now_us);
  /// Handles @p ring's refresh timer, due at @p due_us, firing at @p now_us.
  void fire_refresh(Shard& shard, std::size_t ring, std::uint64_t due_us,
                    std::uint64_t now_us);
  /// Decodes one received frame and applies it to its ring. Returns the
  /// ring, whose nodes listed in the shard's rebroadcast scratch changed
  /// state and must broadcast; nullopt when the frame names no ring of
  /// @p shard. The frame's bytes are not read after the call.
  std::optional<std::size_t> process_frame(Shard& shard, wire::ByteView bytes,
                                           std::uint64_t now_us);
  void broadcast_node(std::size_t ring, std::size_t node,
                      std::uint64_t now_us);
  void note_holder_change(std::size_t ring, std::size_t node,
                          std::uint64_t now_us);
  ReactorReport make_report(double duration_us);

  ReactorConfig config_;
  std::unique_ptr<RingTable> table_;
  FaultInjector injector_;
  std::vector<std::unique_ptr<Telemetry>> ring_telemetry_;
  /// Per-ring refresh backoff shift: a ring whose refresh broadcast drew
  /// no response doubles its next interval (up to 64x base), so stalled
  /// rings under congestion stop flooding the loop; any activity resets
  /// it. Shard-partitioned access (ring % shards), no synchronization.
  std::vector<std::uint8_t> refresh_backoff_;
  LatencyHistogram latency_;
  bool ran_ = false;
  double ran_duration_us_ = 0.0;
  std::uint64_t kernel_rx_drops_ = 0;

  // Transport plumbing shared by both modes; see reactor.cpp.
  std::vector<std::unique_ptr<Shard>> shards_;
};

const char* to_string(ReactorTransport transport);

}  // namespace ssr::runtime
