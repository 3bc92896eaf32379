// DutyService — the deployment-facing API of the library: "run my ring of
// nodes; call me when a node must start or stop doing the privileged work;
// keep at least one node on duty at all times."
//
// Wraps the threaded SSRmin runtime: the critical section becomes a pair
// of user callbacks (on-duty / off-duty), and the service accounts
// per-node wall-clock duty time, activation counts and coverage the way
// an operator would want them reported. This is the programmatic form of
// the paper's camera system: replace the callback body with
// "start/stop recording".
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/ssrmin.hpp"
#include "runtime/threaded_ring.hpp"

namespace ssr::incl {

struct DutyServiceParams {
  std::size_t node_count = 5;
  /// Dijkstra modulus; 0 means node_count + 1.
  std::uint32_t modulus = 0;
  runtime::RuntimeParams runtime{};

  void validate() const;
};

/// Per-node duty accounting (wall-clock).
struct DutyStats {
  std::vector<double> duty_seconds;     ///< accumulated on-duty time
  std::vector<std::uint64_t> activations;  ///< number of duty periods
  std::uint64_t total_activations = 0;
  /// Nodes currently on duty (at snapshot time).
  std::size_t currently_active = 0;
};

class DutyService {
 public:
  /// @param on_duty_change called from node threads whenever a node's duty
  ///        flips; must be thread-safe and fast (it runs on the protocol
  ///        path). May be null.
  using DutyCallback = std::function<void(std::size_t node, bool on_duty)>;

  DutyService(DutyServiceParams params, DutyCallback on_duty_change);
  ~DutyService();

  DutyService(const DutyService&) = delete;
  DutyService& operator=(const DutyService&) = delete;

  std::size_t size() const { return params_.node_count; }

  void start();
  void stop();
  bool running() const { return running_; }

  /// Snapshot of the duty accounting (open duty periods are included up to
  /// "now").
  DutyStats stats() const;

  /// Coverage over the next @p duration: the exact holder timeline of the
  /// underlying ring; see ThreadedRing::observe.
  runtime::Telemetry observe(std::chrono::milliseconds duration);

  /// Transient-fault injection on a node.
  void corrupt(std::size_t node);

 private:
  void on_flip(std::size_t node, bool active);

  DutyServiceParams params_;
  DutyCallback user_callback_;
  std::unique_ptr<runtime::ThreadedRing<core::SsrMinRing>> ring_;
  bool running_ = false;

  mutable std::mutex mutex_;
  std::vector<double> duty_seconds_;
  std::vector<std::uint64_t> activations_;
  std::vector<std::chrono::steady_clock::time_point> duty_start_;
  std::vector<bool> active_;
  Rng fault_rng_{12345};
};

}  // namespace ssr::incl
