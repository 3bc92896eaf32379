// Real-thread execution of a ring protocol under the CST discipline: one
// std::jthread per node, latest-value mailboxes as links, the pop timeout
// as the refresh timer. This is the "wireless sensor node" substitute —
// message transmission takes real (scheduler-dependent) time, so the model
// gap the paper analyzes in §5 exists physically here, not just in
// simulation. A node fires its rules with stab::fire and judges its token
// with the protocol's holds_token (stabilizing/cst_node.hpp), like every
// other message-passing host.
//
// Concurrency design (per the CP.* Core Guidelines rules):
//  * each node's protocol state and caches are owned exclusively by its
//    thread — never shared;
//  * cross-thread communication is only (a) latest-value mailboxes and
//    (b) the holder vector — one "holds a token" bit per node — kept under
//    one mutex together with the Telemetry of the running observe()
//    window. A node that flips its bit records the new holder set into
//    that Telemetry inside the lock, reading the clock there too, so the
//    window integrates every holder transition exactly, in order;
//  * a node publishes its token bit *before* sending the state update that
//    could cause a neighbor to act on it. This ordering is what makes
//    SSRmin's graceful-handover guarantee hold for the recorded holder
//    set: the old holder only clears its bit after observing an
//    acknowledgment whose sender had already set its own bit.
//
// Fault injection: a runtime::FaultPlan (RuntimeParams::fault_plan) drives
// both probabilistic per-message faults and scripted windows. Corruption
// has no wire layer to flip bits in here — a checksummed radio turns
// corruption into loss (Lemma 9's model), so a corrupted message is
// counted and dropped. Reordering is implemented at the sender: the
// message is held back and delivered *after* the next message on the same
// link, so the receiver genuinely observes a stale state overwrite a fresh
// one — exactly the hazard the latest-value-mailbox design note below
// warns about.
//
// Why latest-value mailboxes and not FIFO queues: CST messages carry the
// sender's *whole state*, so a receiver loses nothing by only ever seeing
// the newest value — and it loses a theorem by seeing older ones. With
// queued inboxes a backlogged node can act on a stale <0.1> snapshot of
// its successor from the successor's previous token tenure, fire Rule 2
// early, and open a genuine zero-token window; Theorem 3's proof tacitly
// assumes transient periods do not overlap, i.e. receivers act on fresh
// neighbor states (we measured this failure before switching — see
// EXPERIMENTS.md E13). A per-receiver mutex guarding both slots restores
// the needed transitivity: if a node observes the handshake trigger from
// one neighbor, it also observes every state that happened-before it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>
#include "runtime/fault_plan.hpp"
#include "runtime/telemetry.hpp"
#include "stabilizing/cst_node.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ssr::runtime {

struct RuntimeParams {
  /// CST refresh period: a node with a silent inbox rebroadcasts its state
  /// this often.
  std::chrono::microseconds refresh_interval{1000};
  /// Seed for the per-node fault/jitter generators.
  std::uint64_t seed = 1;
  /// Full fault schedule (see runtime/fault_plan.hpp). Window times count
  /// from start().
  FaultPlan fault_plan;

  void validate() const;
};

template <stab::TokenRingProtocol P>
class ThreadedRing {
 public:
  using State = typename P::State;
  /// Optional hook fired from the node's own thread whenever its token
  /// holding flips; must be thread-safe. Arguments: node id, now-holding.
  using ActivationFn = std::function<void(std::size_t, bool)>;

  ThreadedRing(P protocol, std::vector<State> initial, RuntimeParams params)
      : protocol_(std::move(protocol)),
        params_(params),
        initial_(std::move(initial)),
        holders_(initial_.size()),
        injector_(params_.fault_plan, initial_.size() > 1 ? initial_.size() : 2) {
    params_.validate();
    SSR_REQUIRE(initial_.size() == protocol_.size(),
                "configuration size must equal ring size");
    for (std::size_t i = 0; i < initial_.size(); ++i) {
      nodes_.push_back(std::make_unique<NodeShared>());
    }
  }

  ~ThreadedRing() { stop(); }

  ThreadedRing(const ThreadedRing&) = delete;
  ThreadedRing& operator=(const ThreadedRing&) = delete;

  std::size_t size() const { return nodes_.size(); }

  void set_activation_callback(ActivationFn fn) {
    SSR_REQUIRE(!running_, "set the callback before start()");
    activation_ = std::move(fn);
  }

  /// Launches the node threads. Idempotent; restartable after stop() (the
  /// run restarts from the initial configuration, with the fault clock and
  /// crash windows re-armed; counters keep accumulating).
  void start() {
    if (running_) return;
    running_ = true;
    injector_.rearm();
    epoch_ = std::chrono::steady_clock::now();
    publish_initial_holders();
    for (auto& node : nodes_) node->inbox.open();
    Rng seeder(params_.seed);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const std::uint64_t node_seed = seeder();
      threads_.emplace_back([this, i, node_seed](std::stop_token st) {
        node_main(i, node_seed, st);
      });
    }
  }

  /// Requests all node threads to stop and joins them. Idempotent.
  void stop() {
    if (!running_) return;
    for (auto& t : threads_) t.request_stop();
    for (auto& node : nodes_) node->inbox.close();
    threads_.clear();  // jthread joins on destruction
    running_ = false;
  }

  /// Injects a transient fault: node i's state is overwritten with @p s
  /// (processed by the node thread in FIFO order with normal messages).
  void corrupt(std::size_t i, State s) {
    SSR_REQUIRE(i < nodes_.size(), "node index out of range");
    nodes_[i]->inbox.post_corrupt(std::move(s));
  }

  /// Records every holder transition for @p duration and returns that
  /// window's Telemetry: the exact holder timeline (wall-clock times on
  /// the injector's fault clock), the fault windows' recovery and the
  /// per-node counters, which count from construction. Blocks the caller
  /// for @p duration, which must be positive.
  Telemetry observe(std::chrono::milliseconds duration) {
    SSR_REQUIRE(running_, "call start() before observe()");
    SSR_REQUIRE(duration.count() > 0, "observe duration must be positive");
    Telemetry telemetry(nodes_.size());
    telemetry.set_plan(injector_.plan());
    {
      std::lock_guard lock(holder_mutex_);
      SSR_REQUIRE(window_ == nullptr, "one observe() window at a time");
      telemetry.observe(now_us(), holders_);
      window_ = &telemetry;
    }
    std::this_thread::sleep_for(duration);
    {
      std::lock_guard lock(holder_mutex_);
      window_ = nullptr;
      telemetry.finish(now_us());
    }
    fill_node_telemetry(telemetry);
    return telemetry;
  }

 private:
  /// Copies the per-node counters into @p telemetry.
  void fill_node_telemetry(Telemetry& telemetry) const {
    std::vector<NodeTelemetry> counters(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const PerNodeCounters& c = nodes_[i]->counters;
      NodeTelemetry& t = counters[i];
      t.frames_sent = c.sent.load(std::memory_order_relaxed);
      t.frames_dropped = c.dropped.load(std::memory_order_relaxed);
      t.frames_duplicated = c.duplicated.load(std::memory_order_relaxed);
      t.frames_reordered = c.reordered.load(std::memory_order_relaxed);
      t.frames_corrupted = c.corrupted.load(std::memory_order_relaxed);
      t.frames_received = c.received.load(std::memory_order_relaxed);
      t.rule_executions = c.rules.load(std::memory_order_relaxed);
      t.crash_restarts = c.crashes.load(std::memory_order_relaxed);
    }
    telemetry.set_node_counters(std::move(counters));
  }

  /// Latest-value mailbox: one slot per neighbor direction plus a fault-
  /// injection slot. A single mutex guards all slots so a reader that
  /// observes one neighbor's update also observes every update that
  /// happened-before it (see the class comment).
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::optional<State> from_pred;
    std::optional<State> from_succ;
    std::optional<State> corrupt;
    bool closed = false;

    void post_state(bool is_pred, const State& s) {
      {
        std::lock_guard lock(mutex);
        if (closed) return;
        (is_pred ? from_pred : from_succ) = s;
      }
      cv.notify_one();
    }

    void post_corrupt(State s) {
      {
        std::lock_guard lock(mutex);
        if (closed) return;
        corrupt = std::move(s);
      }
      cv.notify_all();
    }

    void close() {
      {
        std::lock_guard lock(mutex);
        closed = true;
      }
      cv.notify_all();
    }

    /// Reopens after close() and clears stale slots (restart support; must
    /// not race with node threads — callers hold the start/stop sequence).
    void open() {
      std::lock_guard lock(mutex);
      closed = false;
      from_pred.reset();
      from_succ.reset();
      corrupt.reset();
    }

    /// Waits for any slot (or timeout), then drains all slots atomically.
    /// Returns false on pure timeout (nothing received).
    bool take(std::chrono::microseconds timeout, std::optional<State>& pred,
              std::optional<State>& succ, std::optional<State>& corrupted) {
      std::unique_lock lock(mutex);
      cv.wait_for(lock, timeout, [&] {
        return from_pred || from_succ || corrupt || closed;
      });
      pred = std::exchange(from_pred, std::nullopt);
      succ = std::exchange(from_succ, std::nullopt);
      corrupted = std::exchange(corrupt, std::nullopt);
      return pred.has_value() || succ.has_value() || corrupted.has_value();
    }
  };

  /// Per-node fault/wire counters; written only by the owning node thread,
  /// read by observe(). Cache-line aligned to avoid false sharing on the
  /// hot send path.
  struct alignas(64) PerNodeCounters {
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> duplicated{0};
    std::atomic<std::uint64_t> reordered{0};
    std::atomic<std::uint64_t> corrupted{0};
    std::atomic<std::uint64_t> received{0};
    std::atomic<std::uint64_t> rules{0};
    std::atomic<std::uint64_t> crashes{0};
  };

  struct NodeShared {
    Mailbox inbox;
    PerNodeCounters counters;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  void publish_initial_holders() {
    const std::size_t n = initial_.size();
    std::lock_guard lock(holder_mutex_);
    for (std::size_t i = 0; i < n; ++i) {
      holders_[i] = protocol_.holds_token(i, initial_[i],
                                          initial_[stab::pred_index(i, n)],
                                          initial_[stab::succ_index(i, n)]);
    }
  }

  void node_main(std::size_t i, std::uint64_t seed, std::stop_token st) {
    const std::size_t n = nodes_.size();
    const std::size_t pred = stab::pred_index(i, n);
    const std::size_t succ = stab::succ_index(i, n);
    Rng rng(seed);
    PerNodeCounters& counters = nodes_[i]->counters;
    const bool scripted = !injector_.plan().windows.empty();
    const auto pause_slice =
        std::min(params_.refresh_interval, std::chrono::microseconds{200});
    // Thread-local protocol state: own state plus neighbor caches, seeded
    // coherently from the shared initial configuration.
    State self = initial_[i];
    State cache_pred = initial_[pred];
    State cache_succ = initial_[succ];
    bool holding = protocol_.holds_token(i, self, cache_pred, cache_succ);
    // Reorder hold slots, one per outgoing link (pred-/succ-directed): a
    // held message is transmitted after the next one on the same link.
    std::optional<State> held_to_pred;
    std::optional<State> held_to_succ;

    auto publish = [&] {
      const bool h = protocol_.holds_token(i, self, cache_pred, cache_succ);
      if (h == holding) return;
      holding = h;
      {
        std::lock_guard lock(holder_mutex_);
        holders_[i] = h;
        if (window_ != nullptr) window_->observe(now_us(), holders_);
      }
      if (activation_) activation_(i, h);
    };
    auto send_to = [&](std::size_t target, bool as_pred,
                       std::optional<State>& held) {
      const FrameFate fate = injector_.on_send(i, target, now_us(), rng);
      if (fate.drop) {
        counters.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (fate.corrupt_bits > 0) {
        // No wire layer to flip bits in: a checksummed radio turns
        // corruption into loss (Lemma 9's model).
        counters.corrupted.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (fate.reorder && !held.has_value()) {
        held = self;
        counters.reordered.fetch_add(1, std::memory_order_relaxed);
        return;  // transmitted after the next message on this link
      }
      nodes_[target]->inbox.post_state(as_pred, self);
      counters.sent.fetch_add(1, std::memory_order_relaxed);
      if (fate.duplicate) {
        nodes_[target]->inbox.post_state(as_pred, self);
        counters.sent.fetch_add(1, std::memory_order_relaxed);
        counters.duplicated.fetch_add(1, std::memory_order_relaxed);
      }
      if (held.has_value()) {
        // Flush the held (now stale) message after the fresh one.
        nodes_[target]->inbox.post_state(as_pred, *held);
        counters.sent.fetch_add(1, std::memory_order_relaxed);
        held.reset();
      }
    };
    auto broadcast = [&] {
      // Predecessor first: the update chain that can re-trigger us runs
      // through our successor, so the pred-directed copy must be posted
      // before the succ-directed one (see the class comment).
      send_to(pred, /*as_pred=*/false, held_to_pred);  // we are pred's succ
      send_to(succ, /*as_pred=*/true, held_to_succ);   // we are succ's pred
    };

    // Initial broadcast primes the neighbors' caches.
    broadcast();

    std::optional<State> got_pred;
    std::optional<State> got_succ;
    std::optional<State> got_corrupt;
    while (!st.stop_requested()) {
      if (scripted) {
        const double t = now_us();
        if (injector_.take_crash(i, t)) {
          // Crash with state reset: protocol state and caches are wiped;
          // the node restarts from the default state when the window ends.
          self = State{};
          cache_pred = State{};
          cache_succ = State{};
          counters.crashes.fetch_add(1, std::memory_order_relaxed);
          publish();
        }
        if (injector_.node_down(i, t)) {
          std::this_thread::sleep_for(pause_slice);
          continue;
        }
      }
      const bool received = nodes_[i]->inbox.take(
          params_.refresh_interval, got_pred, got_succ, got_corrupt);
      if (st.stop_requested()) break;
      if (!received) {
        // Refresh timer: rebroadcast the current state (Algorithm 4
        // line 11) so lost messages are eventually repaired.
        broadcast();
        continue;
      }
      if (got_corrupt) self = *got_corrupt;
      if (got_pred) {
        cache_pred = *got_pred;
        counters.received.fetch_add(1, std::memory_order_relaxed);
      }
      if (got_succ) {
        cache_succ = *got_succ;
        counters.received.fetch_add(1, std::memory_order_relaxed);
      }
      // The token can arrive with the update. Publish the gain before the
      // rule runs: a Dijkstra-style rule consumes the token it enables, so
      // publishing only afterwards would never show a holder (the
      // reactor's RingTable::deliver does the same).
      publish();
      if (stab::fire(protocol_, i, self, cache_pred, cache_succ)) {
        counters.rules.fetch_add(1, std::memory_order_relaxed);
      }
      // Publish before sending: a neighbor that acts on this state update
      // must already be able to observe our new token bit.
      publish();
      broadcast();
    }
  }

  P protocol_;
  RuntimeParams params_;
  ActivationFn activation_;
  std::vector<State> initial_;

  std::vector<std::unique_ptr<NodeShared>> nodes_;
  std::vector<std::jthread> threads_;
  bool running_ = false;
  std::chrono::steady_clock::time_point epoch_{};

  /// Each node's token bit, and the running observe() window's Telemetry
  /// (null outside a window); both guarded by holder_mutex_.
  std::mutex holder_mutex_;
  std::vector<bool> holders_;
  Telemetry* window_ = nullptr;
  FaultInjector injector_;
};

}  // namespace ssr::runtime
