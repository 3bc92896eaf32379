// Holder sampling shared by the real runtimes: the snapshot/report types
// and the polling loop that turns consistent snapshots into a
// SamplerReport (and, optionally, a Telemetry holder timeline).
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "runtime/telemetry.hpp"

namespace ssr::runtime {

/// Consistent-snapshot result (see HolderBoard::sample).
struct HolderSnapshot {
  std::vector<bool> holders;
  bool consistent = false;  ///< version counter was stable across the read
};

/// Aggregate observations from a sampling run.
struct SamplerReport {
  std::uint64_t samples = 0;
  std::uint64_t consistent_samples = 0;
  /// Consistent samples observing zero token holders. The paper's graceful
  /// handover (Theorem 3) predicts 0 for SSRmin started legitimate; plain
  /// Dijkstra has real extinction windows a sampler can catch.
  std::uint64_t zero_holder_samples = 0;
  std::size_t min_holders = std::numeric_limits<std::size_t>::max();
  std::size_t max_holders = 0;
  /// Holder-set changes between consecutive consistent samples.
  std::uint64_t handovers = 0;
  /// Frames actually transmitted (injector drops excluded).
  std::uint64_t messages_sent = 0;
  /// Frames the fault injector removed (probabilistic + scripted windows,
  /// and corruption, which a checksum would turn into loss anyway).
  std::uint64_t messages_lost = 0;
  std::uint64_t rule_executions = 0;
};

/// Polls @p sample_fn every @p interval for @p duration and aggregates the
/// consistent snapshots. @p clock_us must return microseconds on the same
/// fault clock the runtime's injector uses (so telemetry window recovery
/// lines up with the scripted windows); @p telemetry may be null. The
/// wire counters of the report are left zero — callers fill them from
/// their own counters.
template <typename SampleFn, typename ClockFn>
SamplerReport sample_holders(SampleFn&& sample_fn, ClockFn&& clock_us,
                             std::chrono::milliseconds duration,
                             std::chrono::microseconds interval,
                             Telemetry* telemetry = nullptr) {
  SamplerReport report;
  std::vector<bool> previous;
  const auto deadline = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < deadline) {
    const HolderSnapshot snap = sample_fn();
    const double t_us = clock_us();
    ++report.samples;
    if (snap.consistent) {
      ++report.consistent_samples;
      std::size_t count = 0;
      for (bool b : snap.holders)
        if (b) ++count;
      if (count == 0) ++report.zero_holder_samples;
      report.min_holders = std::min(report.min_holders, count);
      report.max_holders = std::max(report.max_holders, count);
      if (!previous.empty() && previous != snap.holders) ++report.handovers;
      previous = snap.holders;
      if (telemetry != nullptr) telemetry->observe(t_us, snap.holders);
    }
    std::this_thread::sleep_for(interval);
  }
  if (telemetry != nullptr) telemetry->finish(clock_us());
  if (report.min_holders == std::numeric_limits<std::size_t>::max()) {
    report.min_holders = 0;
  }
  return report;
}

}  // namespace ssr::runtime
