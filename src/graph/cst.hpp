// Event-driven CST execution for general-graph protocols — the
// message-passing counterpart of graph::GraphEngine, mirroring
// msgpass::CstSimulation (same network parameters, link discipline, loss
// model and coverage accounting) but with one cache and one pair of
// directed links per graph edge.
//
// Runs on the same sharded conservative engine (msgpass/pdes.hpp): nodes
// are partitioned into NetworkParams::workers contiguous id ranges, and
// the global-window synchronization needs no per-channel clocks — every
// cross-node event is a delivery at least delay_min away, on any
// topology. Neighbor lists, caches and links are flattened into CSR
// arrays so a shard's hot loop walks contiguous memory. Determinism
// matches the ring engine: per-node stream_rng streams, (time, creator,
// seq) event keys, and a key-ordered flip merge make every statistic
// byte-identical at any worker count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/protocol.hpp"
#include "msgpass/cst.hpp"  // NetworkParams, CoverageStats, Time
#include "msgpass/pdes.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ssr::graph {

namespace pdes = ssr::msgpass::pdes;

template <GraphProtocol P>
class GraphCstSimulation {
 public:
  using State = typename P::State;
  using Config = std::vector<State>;
  /// Activity predicate on a node's local view (e.g. "is in the MIS").
  using ActiveFn = std::function<bool(std::size_t, const State&,
                                      std::span<const State>)>;

  GraphCstSimulation(P protocol, Config initial, ActiveFn active,
                     msgpass::NetworkParams params)
      : protocol_(std::move(protocol)),
        params_(params),
        active_(std::move(active)),
        aux_rng_(params.seed),
        states_(std::move(initial)) {
    params_.validate();
    const std::size_t n = protocol_.topology().size();
    SSR_REQUIRE(states_.size() == n, "configuration size mismatch");
    SSR_REQUIRE(n < (std::size_t{1} << 32),
                "graph size must fit the 32-bit event-key node field");
    workers_ = msgpass::resolve_workers(params_.workers, n);
    layout_ = pdes::ShardLayout(n, workers_);

    // CSR-flatten the topology: edge (i, k) lives at off_[i] + k.
    off_.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      off_[i + 1] = off_[i] + protocol_.topology().neighbors(i).size();
    }
    const std::size_t edges = off_[n];
    nbr_.reserve(edges);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j : protocol_.topology().neighbors(i)) {
        nbr_.push_back(static_cast<std::uint32_t>(j));
      }
    }
    // Receiver-side slot of each directed edge, so a delivery can update
    // the right cache entry without rescanning the neighbor list.
    rev_slot_.assign(edges, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t e = off_[i]; e < off_[i + 1]; ++e) {
        const std::size_t j = nbr_[e];
        bool found = false;
        for (std::size_t f = off_[j]; f < off_[j + 1]; ++f) {
          if (nbr_[f] == i) {
            rev_slot_[e] = static_cast<std::uint32_t>(f - off_[j]);
            found = true;
            break;
          }
        }
        SSR_REQUIRE(found, "topology is not symmetric");
      }
    }

    cache_.resize(edges);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t e = off_[i]; e < off_[i + 1]; ++e) {
        cache_[e] = states_[nbr_[e]];
      }
    }
    link_busy_.assign(edges, 0);
    link_has_pending_.assign(edges, 0);
    link_pending_.resize(edges);
    exec_pending_.assign(n, 0);
    holder_bit_.assign(n, 0);
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
      // One delivery per incoming link (each also freeing its sender's
      // link) plus one timer and at most one execution per node; the
      // kLinkFree records of shard-crossing links spill past the reserve.
      const std::size_t span_edges = off_[sh.hi] - off_[sh.lo];
      sh.heap.reserve(span_edges + 2 * (sh.hi - sh.lo) + 64);
      sh.slab.reserve(span_edges + 16);
      sh.outbox.resize(workers_);
    }
    for (std::size_t i = 0; i < n; ++i) {
      Shard& sh = shards_[layout_.shard_of(i)];
      pdes::HeapRec timer;
      timer.time = node_rng_[i].uniform01() * params_.refresh_interval;
      timer.order = pdes::make_order(i, node_seq_[i]++);
      timer.kind = pdes::EvKind::kTimer;
      sh.heap.push(timer);
      maybe_schedule_execution(sh, i, 0.0);
    }
    recompute_holders();
  }

  std::size_t size() const { return states_.size(); }
  msgpass::Time now() const { return now_; }
  const Config& global_config() const { return states_; }
  /// Resolved shard count the engine actually runs with.
  std::size_t workers() const { return workers_; }

  bool coherent() const {
    for (std::size_t e = 0; e < nbr_.size(); ++e) {
      if (!(cache_[e] == states_[nbr_[e]])) return false;
    }
    return true;
  }

  void randomize_caches(const std::function<State(Rng&)>& gen) {
    for (auto& s : cache_) s = gen(aux_rng_);
    recompute_holders();
  }

  std::size_t active_count() const { return holder_count_; }

  std::vector<bool> active_view() const {
    const std::size_t n = states_.size();
    std::vector<bool> active(n, false);
    for (std::size_t i = 0; i < n; ++i) active[i] = eval_active(i);
    return active;
  }

  /// Runs for @p duration of simulated time.
  msgpass::CoverageStats run(msgpass::Time duration) {
    return run_impl(now_ + duration,
                    [](const GraphCstSimulation&) { return false; });
  }

  /// Runs until stop(*this) or the deadline; the predicate is evaluated at
  /// every synchronization-round horizon (worker-count-independent).
  template <typename StopFn>
  msgpass::CoverageStats run_until(StopFn&& stop, msgpass::Time deadline,
                                   bool* stopped_early) {
    auto stats = run_impl(deadline, std::forward<StopFn>(stop));
    if (stopped_early != nullptr) *stopped_early = stopped_;
    return stats;
  }

 private:
  /// In-flight frame payload plus its addressing, interned per shard.
  struct Frame {
    State payload{};
    std::uint32_t dest = 0;
    std::uint32_t dest_slot = 0;  ///< receiver-side cache slot
    /// Sender-side local link index, read when the delivery frees the
    /// sender's link (kEvFreeLink).
    std::uint32_t src_link = 0;
  };

  struct BoundaryFrame {
    msgpass::Time time = 0.0;
    std::uint64_t order = 0;
    Frame frame{};
    std::uint8_t flags = 0;
  };

  struct alignas(64) Shard {
    std::size_t id = 0;
    std::size_t lo = 0;
    std::size_t hi = 0;
    pdes::EventHeap heap;
    pdes::PayloadSlab<Frame> slab;
    std::vector<pdes::FlipEntry> flips;
    std::vector<std::vector<BoundaryFrame>> outbox;  ///< per dest shard
    msgpass::Time clock = 0.0;
    pdes::ShardCounters ctr;
  };

  std::span<const State> caches_of(std::size_t i) const {
    return {cache_.data() + off_[i], off_[i + 1] - off_[i]};
  }

  bool eval_active(std::size_t i) const {
    return active_(i, states_[i], caches_of(i));
  }

  void recompute_holders() {
    holder_count_ = 0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      const bool h = eval_active(i);
      holder_bit_[i] = h ? 1 : 0;
      if (h) ++holder_count_;
    }
  }

  /// Sends node i's state along its k-th incident edge.
  void send(Shard& sh, std::size_t i, std::size_t k, msgpass::Time now) {
    const std::size_t e = off_[i] + k;
    if (link_busy_[e]) {
      link_pending_[e] = states_[i];
      link_has_pending_[e] = 1;
      return;
    }
    transmit(sh, i, k, states_[i], now);
  }

  void broadcast(Shard& sh, std::size_t i, msgpass::Time now) {
    const std::size_t deg = off_[i + 1] - off_[i];
    for (std::size_t k = 0; k < deg; ++k) send(sh, i, k, now);
  }

  void transmit(Shard& sh, std::size_t i, std::size_t k, const State& payload,
                msgpass::Time now) {
    const std::size_t e = off_[i] + k;
    link_busy_[e] = 1;
    ++sh.ctr.transmissions;
    Rng& rng = node_rng_[i];
    const double delay = params_.draw_delay(rng);
    std::uint8_t flags = 0;
    if (rng.bernoulli(params_.loss_probability)) flags |= pdes::kEvLost;
    const msgpass::Time arrive = pdes::advance_time(now, delay);
    const std::uint32_t delivery_seq = node_seq_[i]++;
    const std::uint32_t free_seq = node_seq_[i]++;
    const std::size_t dest = nbr_[e];
    const std::size_t dest_shard = layout_.shard_of(dest);
    Frame frame{payload, static_cast<std::uint32_t>(dest), rev_slot_[e],
                static_cast<std::uint32_t>(k)};
    if (dest_shard == sh.id) {
      // One record for delivery and link completion, as in
      // msgpass::CstSimulation::transmit. Lost frames are interned too, so
      // the completion finds the sender's link index in the Frame.
      pdes::HeapRec rec;
      rec.time = arrive;
      rec.order = pdes::make_order(i, delivery_seq);
      rec.slot = sh.slab.intern(frame);
      rec.kind = pdes::EvKind::kDelivery;
      rec.flags = flags | pdes::kEvFreeLink;
      sh.heap.push(rec);
      return;
    }
    sh.outbox[dest_shard].push_back(
        {arrive, pdes::make_order(i, delivery_seq), frame, flags});
    // Sender-local link completion (see msgpass::CstSimulation::transmit);
    // slot carries the local link index, which exceeds the dir byte.
    pdes::HeapRec link_free;
    link_free.time = arrive;
    link_free.order = pdes::make_order(i, free_seq);
    link_free.slot = static_cast<std::uint32_t>(k);
    link_free.kind = pdes::EvKind::kLinkFree;
    sh.heap.push(link_free);
  }

  void maybe_schedule_execution(Shard& sh, std::size_t i, msgpass::Time now) {
    if (exec_pending_[i]) return;
    const int rule = protocol_.enabled_rule(i, states_[i], caches_of(i));
    if (rule == kDisabled) return;
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

  void handle_execute(Shard& sh, std::size_t v, msgpass::Time now) {
    SSR_ASSERT(exec_pending_[v], "execute event without a pending flag");
    exec_pending_[v] = 0;
    const int rule = protocol_.enabled_rule(v, states_[v], caches_of(v));
    if (rule == kDisabled) return;
    states_[v] = protocol_.apply(v, rule, states_[v], caches_of(v));
    ++sh.ctr.rule_executions;
    broadcast(sh, v, now);
    maybe_schedule_execution(sh, v, now);
  }

  void handle_timer(Shard& sh, std::size_t v, msgpass::Time now) {
    broadcast(sh, v, now);
    const double jitter = 0.9 + 0.2 * node_rng_[v].uniform01();
    pdes::HeapRec next;
    next.time = pdes::advance_time(now, params_.refresh_interval * jitter);
    next.order = pdes::make_order(v, node_seq_[v]++);
    next.kind = pdes::EvKind::kTimer;
    sh.heap.push(next);
  }

  /// Node @p sender's transmission along its @p k-th link completes (see
  /// msgpass::CstSimulation::free_link).
  void free_link(Shard& sh, std::size_t sender, std::size_t k,
                 msgpass::Time now) {
    const std::size_t e = off_[sender] + k;
    SSR_ASSERT(link_busy_[e], "link-free on an idle link");
    link_busy_[e] = 0;
    if (link_has_pending_[e]) {
      link_has_pending_[e] = 0;
      transmit(sh, sender, k, link_pending_[e], now);
    }
  }

  void handle_delivery(Shard& sh, const pdes::HeapRec& rec) {
    ++sh.ctr.deliveries;
    ++sh.ctr.events;
    const Frame frame = sh.slab.take(rec.slot);
    if (rec.flags & pdes::kEvLost) {
      // A lost frame changes no node state, so it cannot flip any
      // predicate; count it and move on.
      ++sh.ctr.losses;
    } else {
      const std::size_t v = frame.dest;
      cache_[off_[v] + frame.dest_slot] = frame.payload;
      maybe_schedule_execution(sh, v, rec.time);
      broadcast(sh, v, rec.time);
      log_flip(sh, rec, v);
    }
    if (rec.flags & pdes::kEvFreeLink) {
      free_link(sh, pdes::order_creator(rec.order), frame.src_link, rec.time);
    }
  }

  void dispatch(Shard& sh, const pdes::HeapRec& rec) {
    const std::size_t creator = pdes::order_creator(rec.order);
    switch (rec.kind) {
      case pdes::EvKind::kLinkFree:
        free_link(sh, creator, rec.slot, rec.time);
        return;
      case pdes::EvKind::kDelivery:
        handle_delivery(sh, rec);
        return;
      case pdes::EvKind::kTimer:
        ++sh.ctr.events;
        handle_timer(sh, creator, rec.time);
        break;
      case pdes::EvKind::kExecute:
        ++sh.ctr.events;
        handle_execute(sh, creator, rec.time);
        break;
    }
    log_flip(sh, rec, creator);
  }

  /// Logs node @p v's predicate flip, if the event changed it, under the
  /// event's key.
  void log_flip(Shard& sh, const pdes::HeapRec& rec, std::size_t v) {
    const bool post = eval_active(v);
    if (post != (holder_bit_[v] != 0)) {
      holder_bit_[v] = post ? 1 : 0;
      sh.flips.push_back({rec.time, rec.order, static_cast<std::uint32_t>(v),
                          static_cast<std::uint8_t>(post)});
    }
  }

  void process_shard(Shard& sh, msgpass::Time horizon, msgpass::Time deadline) {
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

  void drain_inbound(std::size_t w) {
    Shard& sh = shards_[w];
    for (std::size_t o = 0; o < workers_; ++o) {
      if (o == w) continue;
      for (const BoundaryFrame& f : shards_[o].outbox[w]) {
        pdes::HeapRec rec;
        rec.time = f.time;
        rec.order = f.order;
        rec.slot = sh.slab.intern(f.frame);
        rec.kind = pdes::EvKind::kDelivery;
        rec.flags = f.flags;
        sh.heap.push(rec);
      }
    }
  }

  template <typename StopFn>
  msgpass::CoverageStats run_impl(msgpass::Time deadline, StopFn&& stop) {
    msgpass::CoverageStats stats;
    stopped_ = false;
    for (Shard& sh : shards_) sh.ctr = pdes::ShardCounters{};
    if (stop(*this)) {
      stopped_ = true;
      // An empty window: its initial count is its only count.
      stats.min_holders = stats.max_holders = holder_count_;
      return stats;
    }
    const msgpass::Time start = now_;
    pdes::CoverageAccumulator acc(start, holder_count_, nullptr, nullptr);
    std::vector<std::vector<pdes::FlipEntry>*> flip_logs;
    flip_logs.reserve(workers_);
    for (Shard& sh : shards_) flip_logs.push_back(&sh.flips);
    if (workers_ > 1 && pool_ == nullptr) {
      pool_ = std::make_unique<util::ThreadPool>(workers_);
    }

    for (;;) {
      msgpass::Time t_next = std::numeric_limits<msgpass::Time>::infinity();
      for (const Shard& sh : shards_) {
        if (!sh.heap.empty()) t_next = std::min(t_next, sh.heap.top().time);
      }
      if (t_next > deadline) break;  // also catches all-heaps-empty
      const msgpass::Time horizon =
          pdes::advance_time(t_next, params_.delay_min);
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
    stats.zero_intervals = static_cast<std::size_t>(acc.zero_intervals());
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
  msgpass::NetworkParams params_;
  ActiveFn active_;
  msgpass::Time now_ = 0.0;
  bool stopped_ = false;
  std::size_t workers_ = 1;
  pdes::ShardLayout layout_;
  Rng aux_rng_;  ///< coordinator-only draws (randomize_caches)

  Config states_;
  std::vector<std::size_t> off_;        ///< CSR offsets, size n+1
  std::vector<std::uint32_t> nbr_;      ///< CSR neighbor ids
  std::vector<std::uint32_t> rev_slot_; ///< receiver-side slot per edge
  std::vector<State> cache_;            ///< cache_[off_[i]+k] = view of nbr k
  std::vector<std::uint8_t> link_busy_;
  std::vector<std::uint8_t> link_has_pending_;
  std::vector<State> link_pending_;
  std::vector<std::uint8_t> exec_pending_;
  std::vector<std::uint8_t> holder_bit_;
  std::vector<Rng> node_rng_;
  std::vector<std::uint32_t> node_seq_;

  std::vector<Shard> shards_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::size_t holder_count_ = 0;
};

}  // namespace ssr::graph
