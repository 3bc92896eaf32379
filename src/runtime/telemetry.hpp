// Telemetry for the message-passing executors: a single-writer recorder
// that turns a stream of (time, holder-set) observations plus per-node
// wire counters into the robustness metrics the paper's Section 5 argues
// about — a time-weighted holder-count histogram (how long the ring spent
// with 0/1/2/... token holders), zero-holder dwell time and interval
// count, handover count, and a per-fault-window time-to-recover.
//
// Every feeder reports every holder transition, so the histogram and the
// zero-holder dwell are exact, not sampled.
//
// Determinism contract: to_json() is a pure function of the ingested
// events. Fed from msgpass::CstSimulation (virtual time), the export is
// bit-identical for a fixed seed and plan — pinned by the differential
// test and by the checked-in BENCH_faults.json. Fed from the real
// runtimes (ThreadedRing, the reactor's kUdp transport), timestamps come
// from the wall clock and the numbers are statistical, not reproducible.
//
// Threading: a Telemetry instance is NOT thread-safe; its feeder
// serializes the calls: ThreadedRing's node threads under its holder
// mutex, the shard that owns the ring (the reactor) or the simulation
// loop (msgpass). ThreadedRing accumulates per-node counters in its own
// atomics and copies them in via set_node_counters() after the window.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "runtime/fault_plan.hpp"
#include "util/json.hpp"

namespace ssr::runtime {

/// Per-node message and rule counters (filled by ThreadedRing).
struct NodeTelemetry {
  std::uint64_t frames_sent = 0;        ///< actually transmitted
  std::uint64_t frames_dropped = 0;     ///< dropped by the injector
  std::uint64_t frames_duplicated = 0;  ///< extra copies transmitted
  std::uint64_t frames_reordered = 0;   ///< held back for stale delivery
  std::uint64_t frames_corrupted = 0;   ///< corrupted, so dropped
  std::uint64_t frames_received = 0;    ///< frames accepted
  std::uint64_t rule_executions = 0;
  std::uint64_t crash_restarts = 0;
};

class Telemetry {
 public:
  explicit Telemetry(std::size_t n);

  /// Free-form provenance recorded into the export.
  void set_context(std::string runtime, std::string algorithm,
                   std::uint64_t seed);
  /// Captures the plan (spec string + windows for recovery tracking).
  void set_plan(const FaultPlan& plan);

  /// Records that @p holders was the holder set from @p t_us onward; the
  /// previous set is integrated over [previous t, t_us). Times must be
  /// nondecreasing.
  void observe(double t_us, const std::vector<bool>& holders);
  /// Closes the integration at @p t_us (idempotent; observe() after
  /// finish() is rejected).
  void finish(double t_us);

  void set_node_counters(std::vector<NodeTelemetry> counters);
  /// The per-node counters summed over the ring (zero without
  /// set_node_counters()).
  NodeTelemetry node_totals() const;
  /// Aggregate wire counters (used by the simulator consumer, which has
  /// no per-node breakdown).
  void set_aggregates(std::uint64_t messages_sent, std::uint64_t messages_lost,
                      std::uint64_t deliveries, std::uint64_t rule_executions);

  // --- accessors (tests and report tables) --------------------------------
  std::size_t ring_size() const { return n_; }
  double observed_us() const { return observed_us_; }
  double zero_holder_dwell_us() const { return holder_time_us_[0]; }
  std::uint64_t zero_intervals() const { return zero_intervals_; }
  std::uint64_t handovers() const { return handovers_; }
  std::size_t min_holders() const;
  std::size_t max_holders() const { return max_holders_; }
  /// Time-weighted histogram: holder_time_us()[c] = microseconds spent
  /// with exactly c holders (counts above n are clamped to n).
  const std::vector<double>& holder_time_us() const { return holder_time_us_; }

  struct WindowOutcome {
    bool recovered = false;
    double time_to_recover_us = 0.0;  ///< first >=1-holder instant - end
  };
  const std::vector<WindowOutcome>& window_outcomes() const {
    return window_outcomes_;
  }

  /// Deterministic JSON export (see the header comment).
  Json to_json() const;
  std::string to_json_string(int indent = 2) const;

 private:
  std::size_t n_;
  std::string runtime_ = "unknown";
  std::string algorithm_ = "unknown";
  std::uint64_t seed_ = 0;
  std::string plan_spec_;
  std::vector<FaultWindow> windows_;
  std::vector<WindowOutcome> window_outcomes_;

  bool started_ = false;
  bool finished_ = false;
  double start_us_ = 0.0;
  double last_us_ = 0.0;
  std::vector<bool> current_;
  std::size_t current_count_ = 0;

  double observed_us_ = 0.0;
  std::vector<double> holder_time_us_;  // index = holder count, 0..n
  std::uint64_t zero_intervals_ = 0;
  std::uint64_t handovers_ = 0;
  std::size_t min_holders_ = std::numeric_limits<std::size_t>::max();
  std::size_t max_holders_ = 0;

  std::vector<NodeTelemetry> node_counters_;
  bool has_aggregates_ = false;
  std::uint64_t agg_sent_ = 0;
  std::uint64_t agg_lost_ = 0;
  std::uint64_t agg_deliveries_ = 0;
  std::uint64_t agg_rules_ = 0;
};

}  // namespace ssr::runtime
