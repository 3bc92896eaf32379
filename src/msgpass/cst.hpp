// Message-passing execution via the cached sensornet transform (CST,
// paper Algorithm 4, after Herman 2003) on a sharded conservative
// parallel discrete-event network simulator.
//
// Each node v_i runs the untouched state-reading protocol against a local
// *cache* Z_i[v_k] of each neighbor's state. Whenever v_i receives a
// neighbor's state it updates the cache, executes (at most) one enabled
// rule, and broadcasts its own state to both neighbors; a periodic timer
// also rebroadcasts the state so lost messages are eventually repaired.
//
// The network model follows paper §5 ¶1: each directed link carries at most
// one message at a time. A send onto a busy link parks the *latest* state
// as pending and transmits it the moment the link frees (a node
// broadcasting its current state never needs to queue more than the newest
// value). Message loss (for Lemma 9 / Theorem 4) is decided per
// transmission with a uniform probability; a lost message still occupies
// the link for its transit time.
//
// Token accounting is the heart of the model-gap experiments (Figs. 11-13,
// Theorem 3): a node holds a token according to the protocol's token
// predicate evaluated on its *local view* (own state + caches), because
// that is the information an implementation would use to decide whether it
// may be active. The simulation integrates, over simulated time, how long
// the system spends with zero / one / two token holders.
//
// Execution engine (see pdes.hpp for the synchronization and determinism
// contract): the ring is cut into NetworkParams::workers contiguous arcs,
// each owned by one worker with its own event heap, payload slab and flip
// log. Per round, the coordinator computes the global minimum pending
// event time T_next, every worker processes its events with time in
// [T_next, T_next + delay_min) — safe because a message needs at least
// delay_min to cross any link, including the two boundary links of each
// arc — and boundary deliveries are exchanged at the barrier. All
// randomness comes from per-node streams (stream_rng(seed, i)), all event
// keys are (time, creator, seq), and all order-sensitive statistics are
// reduced from a key-ordered merge, so results are byte-identical at any
// worker count. A node's predicate depends only on its own state and
// caches, so each event can flip only the acting node's token bit; the
// engine evaluates one predicate per event instead of the legacy O(n)
// holder rescan, which is what makes million-node rings tractable.
//
// Because every node draws from its own stream, trajectories differ from
// the pre-sharding engine (which pulled all draws from one global stream
// in event order — inherently sequential); statistical behaviour is
// unchanged and workers=1 is the reference the differential tests pin
// workers=2/8 against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "msgpass/pdes.hpp"
#include "runtime/fault_plan.hpp"
#include "stabilizing/protocol.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ssr::msgpass {

/// Shape of the per-message transit delay distribution.
enum class DelayModel : std::uint8_t {
  /// Uniform in [delay_min, delay_max] — bounded, the regime Theorem 3's
  /// proof describes.
  kUniform,
  /// delay_min + Exponential(mean = (delay_max - delay_min)) — unbounded
  /// tail. Used to probe the freshness boundary of the graceful-handover
  /// guarantee (finding F1 / experiment E22): a single message outliving a
  /// whole handshake cycle lets a stale acknowledgment trigger Rule 2
  /// early.
  kExponentialTail,
};

/// Tunable network parameters.
struct NetworkParams {
  /// Per-message transit delay (see DelayModel). delay_min doubles as the
  /// conservative lookahead of the sharded engine: rounds advance the
  /// global window by at least delay_min, so a smaller minimum delay means
  /// more synchronization rounds per simulated tick.
  double delay_min = 0.5;
  double delay_max = 1.5;
  DelayModel delay_model = DelayModel::kUniform;
  /// Probability that any single transmission is lost.
  double loss_probability = 0.0;
  /// Probability that a delivered message is delivered a second time after
  /// an extra transit delay (the duplication fault of paper §2.2; state
  /// messages are idempotent, so duplication must be harmless).
  double duplicate_probability = 0.0;
  /// Period of the CST refresh timer (Algorithm 4 line 11).
  double refresh_interval = 8.0;
  /// Critical-section service time: once a rule becomes enabled, the node
  /// executes it after a uniform delay in [service_min, service_max]. This
  /// is the time a privileged node actually spends doing its privileged
  /// work (monitoring, in the camera application) before moving on — with
  /// instantaneous execution a Dijkstra token would be held for zero
  /// simulated time and coverage comparisons would be meaningless.
  double service_min = 0.5;
  double service_max = 1.0;
  /// RNG seed for delays, losses and timer jitter.
  std::uint64_t seed = 1;
  /// Worker shards for the conservative parallel engine (0 = one per
  /// hardware thread; clamped to the ring size). Results are byte-identical
  /// at any value — this is purely a wall-clock knob.
  std::size_t workers = 1;
  /// Shared fault schedule (runtime/fault_plan.hpp). An empty plan is
  /// completely inert: it consumes no RNG draws, so seeded runs reproduce
  /// the pre-fault-plan trajectories bit for bit. Window drops count as
  /// losses; corruption behind a checksum is loss (Lemma 9), so corrupt
  /// frames are marked lost too.
  runtime::FaultPlan fault_plan;
  /// Scale between the simulator's abstract ticks and the fault clock /
  /// telemetry microseconds (window times, exported timestamps).
  double microseconds_per_tick = 1000.0;

  void validate() const;

  /// Draws one transit delay according to the configured model.
  double draw_delay(Rng& rng) const;
};

/// Aggregate results of a simulation window.
struct CoverageStats {
  Time observed_time = 0.0;     ///< simulated time integrated
  Time zero_token_time = 0.0;   ///< time with no token-holding node
  std::size_t zero_intervals = 0;  ///< maximal intervals with zero holders
  /// Extremes of the holder count over the window, the window's initial
  /// count included.
  std::size_t min_holders = std::numeric_limits<std::size_t>::max();
  std::size_t max_holders = 0;
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t transmissions = 0;  ///< sends that entered a link
  std::uint64_t losses = 0;         ///< random + window-dropped + corrupted
  std::uint64_t rule_executions = 0;
  std::uint64_t crash_restarts = 0;
  /// Number of times the set of token-holding nodes changed.
  std::uint64_t handovers = 0;

  /// Fraction of observed time with at least one holder (the paper's
  /// continuous-observation guarantee).
  double coverage() const {
    return observed_time > 0.0 ? 1.0 - zero_token_time / observed_time : 1.0;
  }
};

/// Resolves a NetworkParams::workers request against a node count.
inline std::size_t resolve_workers(std::size_t requested, std::size_t n) {
  std::size_t w = requested != 0
                      ? requested
                      : std::max<std::size_t>(
                            1, std::thread::hardware_concurrency());
  w = std::min<std::size_t>(w, 1024);  // ThreadPool's own cap
  return std::max<std::size_t>(1, std::min(w, n));
}

/// CST execution of a RingProtocol over the event-driven network.
template <stab::RingProtocol P>
class CstSimulation {
 public:
  using State = typename P::State;
  using Config = std::vector<State>;
  /// Token predicate on a node's local view: (i, self, pred_view,
  /// succ_view) -> holds a token.
  using TokenFn =
      std::function<bool(std::size_t, const State&, const State&, const State&)>;

  CstSimulation(P protocol, Config initial, TokenFn token, NetworkParams params)
      : protocol_(std::move(protocol)),
        params_(params),
        token_(std::move(token)),
        aux_rng_(params.seed),
        states_(std::move(initial)),
        injector_(params_.fault_plan, states_.size() >= 2 ? states_.size() : 2),
        has_plan_(!params_.fault_plan.empty()),
        has_windows_(!params_.fault_plan.windows.empty()) {
    params_.validate();
    SSR_REQUIRE(states_.size() == protocol_.size(),
                "configuration size must equal ring size");
    SSR_REQUIRE(states_.size() >= 2, "ring needs at least two processes");
    const std::size_t n = states_.size();
    SSR_REQUIRE(n < (std::size_t{1} << 32),
                "ring size must fit the 32-bit event-key node field");
    workers_ = resolve_workers(params_.workers, n);
    layout_ = pdes::ShardLayout(n, workers_);

    cache_pred_.resize(n);
    cache_succ_.resize(n);
    make_caches_coherent();
    link_busy_.assign(2 * n, 0);
    link_has_pending_.assign(2 * n, 0);
    link_pending_.resize(2 * n);
    exec_pending_.assign(n, 0);
    node_seq_.assign(n, 0);
    node_rng_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      node_rng_.push_back(stream_rng(params_.seed, i));

    shards_.resize(workers_);
    for (std::size_t s = 0; s < workers_; ++s) {
      Shard& sh = shards_[s];
      sh.id = s;
      sh.lo = layout_.begin(s);
      sh.hi = layout_.end(s);
      const std::size_t span = sh.hi - sh.lo;
      // Steady-state in-flight records per node: one timer, at most one
      // pending execution and two incoming deliveries, each of which also
      // frees its sender's link; ghosts, bursts and the kLinkFree records
      // of the two shard-crossing links spill past the reserve.
      sh.heap.reserve(4 * span + 64);
      sh.slab.reserve(2 * span + 16);
      sh.outbox.resize(workers_);
    }
    for (std::size_t i = 0; i < n; ++i) {
      Shard& sh = shards_[layout_.shard_of(i)];
      Rng& rng = node_rng_[i];
      pdes::HeapRec timer;
      timer.time = rng.uniform01() * params_.refresh_interval;
      timer.order = pdes::make_order(i, node_seq_[i]++);
      timer.kind = pdes::EvKind::kTimer;
      sh.heap.push(timer);
      maybe_schedule_execution(sh, i, 0.0);
    }
    holders_.assign(n, false);
    holder_bit_.assign(n, 0);
    recompute_holders();
  }

  std::size_t size() const { return states_.size(); }
  Time now() const { return now_; }
  /// Current simulated time on the fault/telemetry clock (microseconds).
  double fault_clock_us() const { return now_ * params_.microseconds_per_tick; }
  const P& protocol() const { return protocol_; }
  /// Resolved shard count the engine actually runs with.
  std::size_t workers() const { return workers_; }

  /// True state of node i (omniscient view).
  const State& node_state(std::size_t i) const { return states_.at(i); }

  /// Node i's cached view of its predecessor / successor.
  const State& cache_pred(std::size_t i) const { return cache_pred_.at(i); }
  const State& cache_succ(std::size_t i) const { return cache_succ_.at(i); }

  Config global_config() const { return states_; }

  /// Definition 2: every cache equals the neighbor's current state.
  bool coherent() const {
    const std::size_t n = states_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!(cache_pred_[i] == states_[stab::pred_index(i, n)])) return false;
      if (!(cache_succ_[i] == states_[stab::succ_index(i, n)])) return false;
    }
    return true;
  }

  /// Resets every cache to the neighbor's true state (the "legitimate
  /// configuration with cache-coherence" hypothesis of Theorem 3).
  void make_caches_coherent() {
    const std::size_t n = states_.size();
    for (std::size_t i = 0; i < n; ++i) {
      cache_pred_[i] = states_[stab::pred_index(i, n)];
      cache_succ_[i] = states_[stab::succ_index(i, n)];
    }
  }

  /// Fills every cache with an arbitrary state produced by @p gen (the
  /// "arbitrary cache values" hypothesis of Lemma 9 — bad incoherence).
  /// Draws from a dedicated coordinator stream, pred then succ per node in
  /// ascending order, so the corruption pattern is worker-independent.
  void randomize_caches(const std::function<State(Rng&)>& gen) {
    for (std::size_t i = 0; i < states_.size(); ++i) {
      cache_pred_[i] = gen(aux_rng_);
      cache_succ_[i] = gen(aux_rng_);
    }
    recompute_holders();
  }

  /// Per-node token holding, each node judging from its local view.
  std::vector<bool> token_view() const { return holders_; }
  std::size_t holder_count() const { return holder_count_; }

  using IntervalObserver = msgpass::IntervalObserver;
  /// Observer invoked once per inter-flip interval [from, to) with the
  /// holder set that was in force throughout it. Gives application layers
  /// (e.g. the camera-energy model) an exact time integration of who was
  /// active when. The partition is by holder-set *changes* (not by raw
  /// events), so it is identical at every worker count; time-weighted
  /// consumers (Telemetry, TimelineRecorder) integrate the same function.
  void set_observer(IntervalObserver observer) {
    observer_ = std::move(observer);
  }

  /// Runs until simulated time advances by @p duration, accumulating
  /// coverage statistics for the window.
  CoverageStats run(Time duration) {
    return run_impl(now_ + duration, [](const CstSimulation&) { return false; });
  }

  /// Runs until @p stop(*this) holds or the deadline passes. The predicate
  /// is evaluated at every synchronization-round horizon (the rounds — and
  /// hence the stop times — are identical at every worker count; a round
  /// spans at most delay_min of virtual time). Returns the stats;
  /// stopped_early tells which.
  template <typename StopFn>
  CoverageStats run_until(StopFn&& stop, Time deadline, bool* stopped_early) {
    CoverageStats s = run_impl(deadline, std::forward<StopFn>(stop));
    if (stopped_early != nullptr) *stopped_early = stopped_;
    return s;
  }

 private:
  /// Direction of an outgoing link.
  enum class Dir : std::uint8_t { kToPred = 0, kToSucc = 1 };

  /// A delivery crossing a shard boundary, staged in the sender shard's
  /// outbox until the round barrier.
  struct BoundaryFrame {
    Time time = 0.0;
    std::uint64_t order = 0;
    State payload{};
    std::uint8_t dir = 0;
    std::uint8_t flags = 0;
  };

  struct alignas(64) Shard {
    std::size_t id = 0;
    std::size_t lo = 0;
    std::size_t hi = 0;
    pdes::EventHeap heap;
    pdes::PayloadSlab<State> slab;
    std::vector<pdes::FlipEntry> flips;
    std::vector<std::vector<BoundaryFrame>> outbox;  ///< per dest shard
    Time clock = 0.0;  ///< last popped event time (monotonicity guard)
    pdes::ShardCounters ctr;
  };

  std::size_t neighbor(std::size_t i, Dir d) const {
    const std::size_t n = states_.size();
    return d == Dir::kToPred ? stab::pred_index(i, n) : stab::succ_index(i, n);
  }

  static std::size_t link_index(std::size_t i, Dir d) {
    return 2 * i + static_cast<std::size_t>(d);
  }

  bool eval_token(std::size_t i) const {
    return token_(i, states_[i], cache_pred_[i], cache_succ_[i]);
  }

  void recompute_holders() {
    holder_count_ = 0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      const bool h = eval_token(i);
      holder_bit_[i] = h ? 1 : 0;
      holders_[i] = h;
      if (h) ++holder_count_;
    }
  }

  /// Starts a transmission of node i's current state along direction d, or
  /// parks it as pending if the link is occupied (overwriting any older
  /// pending value — only the newest state matters).
  void send(Shard& sh, std::size_t i, Dir d, Time now) {
    const std::size_t idx = link_index(i, d);
    if (link_busy_[idx]) {
      link_pending_[idx] = states_[i];
      link_has_pending_[idx] = 1;
      return;
    }
    transmit(sh, i, d, states_[i], now);
  }

  void transmit(Shard& sh, std::size_t i, Dir d, const State& payload,
                Time now) {
    link_busy_[link_index(i, d)] = 1;
    ++sh.ctr.transmissions;
    Rng& rng = node_rng_[i];
    double delay = params_.draw_delay(rng);
    std::uint8_t flags = 0;
    if (rng.bernoulli(params_.loss_probability)) flags |= pdes::kEvLost;
    const std::size_t dest = neighbor(i, d);
    if (has_plan_) {
      // The injector draws in a fixed order (and an inert probability
      // consumes no draws), so the whole trajectory stays a pure function
      // of (seed, plan).
      const runtime::FrameFate fate = injector_.on_send(
          i, dest, now * params_.microseconds_per_tick, rng);
      // Corruption behind a checksum is loss (Lemma 9); a window drop
      // still occupies the link for its transit time, like any loss.
      if (fate.drop || fate.corrupt_bits > 0) flags |= pdes::kEvLost;
      if (fate.duplicate) flags |= pdes::kEvForceDuplicate;
      // Reordering on a one-message-at-a-time link = the frame arriving
      // stale: stretch its transit past the frames that overtake it.
      if (fate.reorder) {
        delay += params_.draw_delay(rng) + params_.draw_delay(rng);
      }
    }
    // delay >= delay_min in every model, so arrive lands at or beyond the
    // current round's horizon whenever it crosses a shard boundary.
    const Time arrive = pdes::advance_time(now, delay);
    // Every transmission takes two keys: the delivery (i, s) and the link
    // completion (i, s + 1).
    const std::uint32_t delivery_seq = node_seq_[i]++;
    const std::uint32_t free_seq = node_seq_[i]++;
    const std::uint64_t order = pdes::make_order(i, delivery_seq);
    const std::size_t dest_shard = layout_.shard_of(dest);
    if (dest_shard == sh.id) {
      // One record for both: no key lies between (arrive, i, s) and
      // (arrive, i, s + 1), and handling the delivery schedules nothing at
      // `arrive`, so the completion would pop right after the delivery.
      pdes::HeapRec rec;
      rec.time = arrive;
      rec.order = order;
      rec.slot =
          (flags & pdes::kEvLost) ? pdes::kNoSlot : sh.slab.intern(payload);
      rec.kind = pdes::EvKind::kDelivery;
      rec.dir = static_cast<std::uint8_t>(d);
      rec.flags = flags | pdes::kEvFreeLink;
      sh.heap.push(rec);
      return;
    }
    sh.outbox[dest_shard].push_back(
        {arrive, order, payload, static_cast<std::uint8_t>(d), flags});
    // The sender frees its own link when the transmission completes — the
    // legacy engine mutated the sender's link from the receiver's delivery
    // handler, which would be a cross-shard write.
    pdes::HeapRec link_free;
    link_free.time = arrive;
    link_free.order = pdes::make_order(i, free_seq);
    link_free.kind = pdes::EvKind::kLinkFree;
    link_free.dir = static_cast<std::uint8_t>(d);
    sh.heap.push(link_free);
  }

  /// If a rule is enabled at node i and no execution is already pending,
  /// schedule one after the service (critical-section occupancy) delay.
  void maybe_schedule_execution(Shard& sh, std::size_t i, Time now) {
    if (exec_pending_[i]) return;
    const int rule =
        protocol_.enabled_rule(i, states_[i], cache_pred_[i], cache_succ_[i]);
    if (rule == stab::kDisabled) return;
    exec_pending_[i] = 1;
    const double service =
        params_.service_min +
        node_rng_[i].uniform01() * (params_.service_max - params_.service_min);
    pdes::HeapRec rec;
    rec.time = pdes::advance_time(now, service);
    rec.order = pdes::make_order(i, node_seq_[i]++);
    rec.kind = pdes::EvKind::kExecute;
    sh.heap.push(rec);
  }

  /// Algorithm 4 "on receipt": cache update, one rule execution, broadcast.
  void handle_delivery(Shard& sh, const pdes::HeapRec& rec, std::size_t v,
                       bool down) {
    ++sh.ctr.deliveries;
    if (rec.flags & pdes::kEvLost) {
      ++sh.ctr.losses;
      return;
    }
    // A frame addressed to a scripted-down node was sent before the window
    // opened (frames sent during it are dropped at the sender): the radio
    // is off, so it is lost on arrival.
    if (down) {
      ++sh.ctr.losses;
      return;
    }
    const State payload = sh.slab.take(rec.slot);
    // Duplication fault: replay this delivery once more after a fresh
    // delay. Duplicates can themselves not duplicate (one replay max).
    // The ghost is created (and keyed) by the receiver: it is a local
    // artifact of the receiver's radio, not a second transmission.
    if (!(rec.flags & pdes::kEvDuplicate)) {
      Rng& rng = node_rng_[v];
      const bool dup = rng.bernoulli(params_.duplicate_probability) ||
                       (rec.flags & pdes::kEvForceDuplicate) != 0;
      if (dup) {
        pdes::HeapRec ghost;
        ghost.time = pdes::advance_time(rec.time, params_.draw_delay(rng));
        ghost.order = pdes::make_order(v, node_seq_[v]++);
        ghost.slot = sh.slab.intern(payload);
        ghost.kind = pdes::EvKind::kDelivery;
        ghost.dir = rec.dir;
        ghost.flags = pdes::kEvDuplicate;
        sh.heap.push(ghost);
      }
    }
    // The message came from our predecessor iff the sender sent toward its
    // successor.
    if (rec.dir == static_cast<std::uint8_t>(Dir::kToSucc)) {
      cache_pred_[v] = payload;
    } else {
      cache_succ_[v] = payload;
    }
    maybe_schedule_execution(sh, v, rec.time);
    send(sh, v, Dir::kToPred, rec.time);
    send(sh, v, Dir::kToSucc, rec.time);
  }

  /// The deferred rule execution: re-evaluate against the current caches
  /// (they may have changed during the service window), apply, broadcast,
  /// and re-arm if the node is still enabled.
  void handle_execute(Shard& sh, std::size_t v, Time now, bool down) {
    SSR_ASSERT(exec_pending_[v], "execute event without a pending flag");
    exec_pending_[v] = 0;
    if (down) {
      // A down node executes no rules; the first delivery after the window
      // closes reschedules it.
      return;
    }
    const int rule =
        protocol_.enabled_rule(v, states_[v], cache_pred_[v], cache_succ_[v]);
    if (rule == stab::kDisabled) return;
    states_[v] =
        protocol_.apply(v, rule, states_[v], cache_pred_[v], cache_succ_[v]);
    ++sh.ctr.rule_executions;
    send(sh, v, Dir::kToPred, now);
    send(sh, v, Dir::kToSucc, now);
    // Convergence rules can chain (e.g. Rule 5 then Rule 3) without any
    // further message arriving; keep the node scheduled while enabled.
    maybe_schedule_execution(sh, v, now);
  }

  void handle_timer(Shard& sh, std::size_t v, Time now, bool down) {
    pdes::HeapRec next;
    next.kind = pdes::EvKind::kTimer;
    if (down) {
      // The radio is off; keep the timer armed so the node resumes
      // broadcasting when the window closes. (Its outgoing frames would be
      // window-dropped at the injector anyway.)
      next.time = pdes::advance_time(now, params_.refresh_interval);
      next.order = pdes::make_order(v, node_seq_[v]++);
      sh.heap.push(next);
      return;
    }
    send(sh, v, Dir::kToPred, now);
    send(sh, v, Dir::kToSucc, now);
    // Mild jitter avoids artificial lock-step among the nodes' timers.
    const double jitter = 0.9 + 0.2 * node_rng_[v].uniform01();
    next.time = pdes::advance_time(now, params_.refresh_interval * jitter);
    next.order = pdes::make_order(v, node_seq_[v]++);
    sh.heap.push(next);
  }

  /// The sender's transmission along direction @p dir completes: its link
  /// frees and carries the parked newest state, if any. Pure bookkeeping
  /// on the sender side: not a protocol event (not counted, not
  /// crash-gated — the legacy engine freed links from inside delivery
  /// handling, with the same immunity).
  void free_link(Shard& sh, std::size_t sender, std::uint8_t dir, Time now) {
    const std::size_t idx = 2 * sender + dir;
    SSR_ASSERT(link_busy_[idx], "link-free on an idle link");
    link_busy_[idx] = 0;
    if (link_has_pending_[idx]) {
      link_has_pending_[idx] = 0;
      transmit(sh, sender, static_cast<Dir>(dir), link_pending_[idx], now);
    }
  }

  void dispatch(Shard& sh, const pdes::HeapRec& rec) {
    const std::size_t creator = pdes::order_creator(rec.order);
    if (rec.kind == pdes::EvKind::kLinkFree) {
      free_link(sh, creator, rec.dir, rec.time);
      return;
    }
    // The acting node: the receiver for deliveries (a ghost's creator *is*
    // its receiver), the owner for timers and executions.
    const std::size_t v =
        (rec.kind == pdes::EvKind::kDelivery &&
         (rec.flags & pdes::kEvDuplicate) == 0)
            ? neighbor(creator, static_cast<Dir>(rec.dir))
            : creator;
    bool down = false;
    if (has_windows_) {
      // Scripted crash/pause windows, checked on the event's own node.
      // Timers fire every refresh interval, so the crash reset lands
      // within one interval of the window opening.
      const double t_us = rec.time * params_.microseconds_per_tick;
      if (injector_.take_crash(v, t_us)) {
        states_[v] = State{};
        cache_pred_[v] = State{};
        cache_succ_[v] = State{};
        ++sh.ctr.crash_restarts;
      }
      down = injector_.node_down(v, t_us);
    }
    switch (rec.kind) {
      case pdes::EvKind::kDelivery:
        // Delivered even while the receiver is down: the frame is counted
        // and discarded (see the down check in handle_delivery).
        handle_delivery(sh, rec, v, down);
        break;
      case pdes::EvKind::kTimer:
        handle_timer(sh, v, rec.time, down);
        break;
      case pdes::EvKind::kExecute:
        handle_execute(sh, v, rec.time, down);
        break;
      case pdes::EvKind::kLinkFree:
        break;  // handled above
    }
    ++sh.ctr.events;
    // Only the acting node's predicate can have changed (it reads nothing
    // but v's own state and caches); log the flip under the event's key.
    const bool post = eval_token(v);
    if (post != (holder_bit_[v] != 0)) {
      holder_bit_[v] = post ? 1 : 0;
      sh.flips.push_back({rec.time, rec.order, static_cast<std::uint32_t>(v),
                          static_cast<std::uint8_t>(post)});
    }
    if (rec.flags & pdes::kEvFreeLink) {
      free_link(sh, creator, rec.dir, rec.time);
    }
  }

  /// One round's worth of events for one shard: everything strictly below
  /// the horizon (and at or below the run deadline), in key order.
  void process_shard(Shard& sh, Time horizon, Time deadline) {
    while (!sh.heap.empty()) {
      const pdes::HeapRec rec = sh.heap.top();
      if (rec.time >= horizon || rec.time > deadline) break;
      SSR_ASSERT(rec.time >= sh.clock,
                 "event pop regressed below the shard clock (lookahead or "
                 "Time-precision violation)");
      sh.clock = rec.time;
      sh.heap.pop();
      dispatch(sh, rec);
    }
  }

  /// Moves boundary deliveries staged for shard w into its heap. Runs
  /// after the processing barrier: it reads other shards' outboxes and
  /// writes only shard w's heap and slab.
  void drain_inbound(std::size_t w) {
    Shard& sh = shards_[w];
    for (std::size_t o = 0; o < workers_; ++o) {
      if (o == w) continue;
      for (const BoundaryFrame& f : shards_[o].outbox[w]) {
        pdes::HeapRec rec;
        rec.time = f.time;
        rec.order = f.order;
        rec.slot =
            (f.flags & pdes::kEvLost) ? pdes::kNoSlot : sh.slab.intern(f.payload);
        rec.kind = pdes::EvKind::kDelivery;
        rec.dir = f.dir;
        rec.flags = f.flags;
        sh.heap.push(rec);
      }
    }
  }

  template <typename StopFn>
  CoverageStats run_impl(Time deadline, StopFn&& stop) {
    CoverageStats stats;
    stopped_ = false;
    for (Shard& sh : shards_) sh.ctr = pdes::ShardCounters{};
    if (stop(*this)) {
      stopped_ = true;
      // An empty window: its initial count is its only count.
      stats.min_holders = stats.max_holders = holder_count_;
      return stats;
    }
    const Time start = now_;
    pdes::CoverageAccumulator acc(start, holder_count_, &holders_, &observer_);
    std::vector<std::vector<pdes::FlipEntry>*> flip_logs;
    flip_logs.reserve(workers_);
    for (Shard& sh : shards_) flip_logs.push_back(&sh.flips);
    if (workers_ > 1 && pool_ == nullptr) {
      pool_ = std::make_unique<util::ThreadPool>(workers_);
    }

    for (;;) {
      Time t_next = std::numeric_limits<Time>::infinity();
      for (const Shard& sh : shards_) {
        if (!sh.heap.empty()) t_next = std::min(t_next, sh.heap.top().time);
      }
      if (t_next > deadline) break;  // also catches all-heaps-empty
      // Conservative window: every event in [t_next, horizon) may be
      // processed now, because any delivery it generates is at least
      // delay_min away and so lands at or beyond the horizon (monotone
      // rounding: fl(a + b) >= fl(t_next + delay_min) for a >= t_next,
      // b >= delay_min). advance_time doubles as the progress guard.
      const Time horizon = pdes::advance_time(t_next, params_.delay_min);
      if (workers_ == 1) {
        process_shard(shards_[0], horizon, deadline);
      } else {
        pool_->run_on_all([&](std::size_t w) {
          for (auto& box : shards_[w].outbox) box.clear();
          process_shard(shards_[w], horizon, deadline);
        });
        pool_->run_on_all([&](std::size_t w) { drain_inbound(w); });
      }
      acc.merge_shards(flip_logs);
      holder_count_ = acc.count();
      now_ = std::min(horizon, deadline);
      if (stop(*this)) {
        stopped_ = true;
        break;
      }
    }
    if (!stopped_ && now_ < deadline) now_ = deadline;
    acc.finish(now_);
    holder_count_ = acc.count();
    stats.observed_time = now_ - start;
    stats.zero_token_time = acc.zero_time();
    stats.zero_intervals =
        static_cast<std::size_t>(acc.zero_intervals());
    stats.handovers = acc.handovers();
    stats.min_holders = acc.min_holders();
    stats.max_holders = acc.max_holders();
    for (const Shard& sh : shards_) {
      stats.events += sh.ctr.events;
      stats.deliveries += sh.ctr.deliveries;
      stats.transmissions += sh.ctr.transmissions;
      stats.losses += sh.ctr.losses;
      stats.rule_executions += sh.ctr.rule_executions;
      stats.crash_restarts += sh.ctr.crash_restarts;
    }
    return stats;
  }

  P protocol_;
  NetworkParams params_;
  TokenFn token_;
  IntervalObserver observer_;
  Time now_ = 0.0;
  bool stopped_ = false;
  std::size_t workers_ = 1;
  pdes::ShardLayout layout_;
  Rng aux_rng_;  ///< coordinator-only draws (randomize_caches)

  Config states_;
  std::vector<State> cache_pred_;
  std::vector<State> cache_succ_;
  std::vector<std::uint8_t> link_busy_;         ///< index 2*i + dir
  std::vector<std::uint8_t> link_has_pending_;  ///< newest state parked
  std::vector<State> link_pending_;
  std::vector<std::uint8_t> exec_pending_;
  std::vector<std::uint8_t> holder_bit_;  ///< current per-node predicate
  std::vector<Rng> node_rng_;             ///< stream_rng(seed, i) per node
  std::vector<std::uint32_t> node_seq_;   ///< per-node event key counter
  runtime::FaultInjector injector_;
  bool has_plan_ = false;
  bool has_windows_ = false;

  std::vector<Shard> shards_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< lazily created when W > 1

  std::vector<bool> holders_;  ///< maintained in merged flip order
  std::size_t holder_count_ = 0;
};

}  // namespace ssr::msgpass
