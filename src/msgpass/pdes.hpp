// Shared machinery for the sharded conservative parallel discrete-event
// CST simulators (msgpass::CstSimulation and graph::GraphCstSimulation).
//
// The execution model is conservative, null-message-free PDES on global
// lookahead windows:
//
//   * the node set is partitioned into W contiguous shards, each owned by
//     one worker with its own event heap, payload slab and flip log;
//   * every cross-node event is a message delivery, and a message can
//     never arrive earlier than `delay_min` after it was sent — the
//     link's minimum transit delay is an *exact* lookahead;
//   * a round therefore processes, in parallel, every event with
//     timestamp strictly below  H = T_next + delay_min  where T_next is
//     the global minimum pending event time: any delivery generated
//     during the round lands at or beyond H (correctly-rounded double
//     addition is monotone, so this holds exactly, not just in real
//     arithmetic). Boundary deliveries are exchanged at the barrier.
//
// Determinism contract (the repo's bit-identical bar): the trajectory is
// a pure function of (seed, parameters), independent of the worker count
// and of the partition, because
//
//   * every node draws randomness only from its own stream_rng(seed, i)
//     stream, and only while one of its events is being handled;
//   * every event carries a totally ordered key (time, creator, seq)
//     where seq is the creator's private counter; each shard pops its
//     heap in key order, so per-node draw order is key order, which is a
//     global trajectory fact;
//   * statistics that depend on the *interleaving* of events (holder-set
//     flips) are logged per shard with their event keys and merged in key
//     order before integration, so zero-token dwell, handover counts and
//     observer callbacks see the exact sequence the one-worker run sees.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace ssr::msgpass {

/// Simulated time, in abstract ticks.
///
/// Precision regime: Time stays a double. Every scheduling step adds a
/// strictly positive delta (delay >= delay_min, service >= service_min,
/// refresh > 0) to the current event time, which advances the clock
/// exactly while `now / delta < 2^52` — for the default delay_min = 0.5
/// that is ~2.2e15 ticks, far beyond any run this repo performs. The
/// simulators assert the sum actually advanced (see pdes::advance_time)
/// and that pops never regress, so a run that ever left the safe regime
/// fails loudly instead of silently freezing virtual time.
using Time = double;

/// Observer invoked once per inter-flip interval [from, to) with the
/// holder set that was in force throughout it.
using IntervalObserver =
    std::function<void(Time from, Time to, const std::vector<bool>& holders)>;

namespace pdes {

/// `at = now + delta` with the monotonicity assert of the Time contract.
inline Time advance_time(Time now, double delta) {
  const Time at = now + delta;
  SSR_ASSERT(at > now,
             "virtual clock failed to advance (Time precision exhausted; "
             "see the safe-regime note on msgpass::Time)");
  return at;
}

/// Balanced contiguous partition of n nodes into `shards` arcs.
class ShardLayout {
 public:
  ShardLayout() = default;
  ShardLayout(std::size_t n, std::size_t shards) : n_(n), shards_(shards) {
    SSR_REQUIRE(shards >= 1 && shards <= n, "shard count must be in [1, n]");
    base_ = n / shards;
    extra_ = n % shards;  // shards [0, extra_) own base_+1 nodes
  }

  std::size_t shards() const { return shards_; }
  std::size_t size() const { return n_; }

  std::size_t begin(std::size_t s) const {
    return s < extra_ ? s * (base_ + 1) : extra_ * (base_ + 1) + (s - extra_) * base_;
  }
  std::size_t end(std::size_t s) const { return begin(s + 1 <= shards_ ? s + 1 : shards_); }

  std::size_t shard_of(std::size_t node) const {
    const std::size_t pivot = extra_ * (base_ + 1);
    if (node < pivot) return node / (base_ + 1);
    return extra_ + (node - pivot) / base_;
  }

 private:
  std::size_t n_ = 1;
  std::size_t shards_ = 1;
  std::size_t base_ = 1;
  std::size_t extra_ = 0;
};

enum class EvKind : std::uint8_t {
  kDelivery = 0,  ///< message arrival at the receiver
  kTimer = 1,     ///< CST refresh broadcast
  kExecute = 2,   ///< deferred rule execution after the service delay
  /// The sender's link completes a transmission to another shard. A
  /// same-shard delivery carries the completion as kEvFreeLink instead.
  kLinkFree = 3,
};

inline constexpr std::uint8_t kEvLost = 1;            ///< frame decided lost
inline constexpr std::uint8_t kEvDuplicate = 2;       ///< ghost re-delivery
inline constexpr std::uint8_t kEvForceDuplicate = 4;  ///< injector-scripted
/// The delivery also completes its sender's transmission: once the
/// delivery is handled, the sender's link frees (see EvKind::kLinkFree).
inline constexpr std::uint8_t kEvFreeLink = 8;

inline constexpr std::uint32_t kNoSlot =
    std::numeric_limits<std::uint32_t>::max();

/// Composite event key component: (creator << 32) | creator's seq. Keys
/// are unique (one counter bump per created event) and identical at every
/// worker count, because each node's counter only moves while one of its
/// events is handled — in key order.
inline std::uint64_t make_order(std::size_t creator, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(creator) << 32) | seq;
}
inline std::size_t order_creator(std::uint64_t order) {
  return static_cast<std::size_t>(order >> 32);
}

/// Slim heap record: 24 bytes, no payload — payloads live in a per-shard
/// slab (satellite of ISSUE 7: the legacy queue sifted a full State copy
/// through every heap swap).
struct HeapRec {
  Time time = 0.0;
  std::uint64_t order = 0;       ///< (creator, seq) tie-break
  std::uint32_t slot = kNoSlot;  ///< payload slab index / link slot id
  EvKind kind = EvKind::kTimer;
  std::uint8_t dir = 0;    ///< ring direction or (graph) unused
  std::uint8_t flags = 0;  ///< kEv* bits
};
static_assert(sizeof(HeapRec) == 24, "heap records stay 24 bytes");

/// Min-heap of HeapRecs on the (time, order) key, stored as an implicit
/// 4-ary tree in one vector. A node's four children sit next to each other
/// (96 bytes), so a sift-down reads about two cache lines per level over a
/// tree half as deep as a binary heap's. Keys are unique, so the pop order
/// is the key order whatever the heap's shape.
class EventHeap {
 public:
  void reserve(std::size_t capacity) { recs_.reserve(capacity); }
  bool empty() const { return recs_.empty(); }
  std::size_t size() const { return recs_.size(); }

  const HeapRec& top() const {
    SSR_ASSERT(!recs_.empty(), "top of an empty event heap");
    return recs_.front();
  }

  /// Takes @p rec by value: the push_back may reallocate, and the sift-up
  /// still reads the record afterwards.
  void push(HeapRec rec) {
    std::size_t hole = recs_.size();
    recs_.push_back(rec);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!before(rec, recs_[parent])) break;
      recs_[hole] = recs_[parent];
      hole = parent;
    }
    recs_[hole] = rec;
  }

  void pop() {
    SSR_ASSERT(!recs_.empty(), "pop from an empty event heap");
    const HeapRec last = recs_.back();
    recs_.pop_back();
    const std::size_t n = recs_.size();
    if (n == 0) return;
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = kArity * hole + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(recs_[c], recs_[best])) best = c;
      }
      if (!before(recs_[best], last)) break;
      recs_[hole] = recs_[best];
      hole = best;
    }
    recs_[hole] = last;
  }

 private:
  static constexpr std::size_t kArity = 4;

  static bool before(const HeapRec& a, const HeapRec& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.order < b.order;
  }

  std::vector<HeapRec> recs_;
};

/// Free-list slab of by-value payloads, one per in-flight message copy.
template <typename Payload>
class PayloadSlab {
 public:
  void reserve(std::size_t capacity) { slots_.reserve(capacity); }

  std::uint32_t intern(const Payload& p) {
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      slots_[idx] = p;
      return idx;
    }
    slots_.push_back(p);
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Reads slot @p idx and returns it to the free list.
  Payload take(std::uint32_t idx) {
    SSR_ASSERT(idx < slots_.size(), "payload slab index out of range");
    free_.push_back(idx);
    return slots_[idx];
  }

  const Payload& peek(std::uint32_t idx) const { return slots_[idx]; }

 private:
  std::vector<Payload> slots_;
  std::vector<std::uint32_t> free_;
};

/// One holder-predicate flip, logged by the owning shard in key order.
struct FlipEntry {
  Time time = 0.0;
  std::uint64_t order = 0;
  std::uint32_t node = 0;
  std::uint8_t value = 0;  ///< predicate value after the event
};

/// Per-shard counters; plain sums, so any merge order is exact.
struct ShardCounters {
  std::uint64_t events = 0;  ///< deliveries + timers + executions processed
  std::uint64_t deliveries = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t losses = 0;
  std::uint64_t rule_executions = 0;
  std::uint64_t crash_restarts = 0;
};

/// Integrates the global holder-count function over a run window from the
/// deterministic (time, order) merge of the shards' flip logs. All
/// floating-point accumulation happens here, in merged key order, which
/// is what keeps zero-token dwell (and the telemetry JSON fed through the
/// observer) byte-identical at every worker count.
class CoverageAccumulator {
 public:
  /// @param holders  current per-node holder bits, maintained across
  ///                 flips iff an observer is attached (may be null)
  CoverageAccumulator(Time start, std::size_t initial_count,
                      std::vector<bool>* holders,
                      const IntervalObserver* observer)
      : cursor_(start),
        count_(initial_count),
        min_(initial_count),
        max_(initial_count),
        in_zero_(initial_count == 0),
        holders_(holders),
        observer_(observer) {}

  std::size_t count() const { return count_; }
  Time zero_time() const { return zero_time_; }
  std::uint64_t zero_intervals() const { return zero_intervals_; }
  std::uint64_t handovers() const { return handovers_; }
  std::size_t min_holders() const { return min_; }
  std::size_t max_holders() const { return max_; }

  /// Consumes the shards' flip logs (each already sorted by key, because
  /// shards pop their heaps in key order) as one merged sequence, then
  /// clears them.
  void merge_shards(std::vector<std::vector<FlipEntry>*>& logs) {
    cursors_.assign(logs.size(), 0);
    for (;;) {
      std::size_t best = logs.size();
      for (std::size_t s = 0; s < logs.size(); ++s) {
        if (cursors_[s] >= logs[s]->size()) continue;
        const FlipEntry& e = (*logs[s])[cursors_[s]];
        if (best == logs.size() || before(e, (*logs[best])[cursors_[best]])) {
          best = s;
        }
      }
      if (best == logs.size()) break;
      apply((*logs[best])[cursors_[best]]);
      ++cursors_[best];
    }
    for (auto* log : logs) log->clear();
  }

  /// Closes the integration at @p end (the run deadline or stop horizon).
  void finish(Time end) {
    const Time dt = end - cursor_;
    SSR_ASSERT(dt >= -0.0, "coverage integration ran backwards");
    if (dt > 0.0) {
      if (count_ == 0) zero_time_ += dt;
      if (observer_ != nullptr && *observer_ && holders_ != nullptr) {
        (*observer_)(cursor_, end, *holders_);
      }
      cursor_ = end;
    }
  }

 private:
  static bool before(const FlipEntry& a, const FlipEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.order < b.order;
  }

  void apply(const FlipEntry& e) {
    finish(e.time);  // integrate [cursor_, e.time) under the old count
    ++handovers_;
    if (e.value != 0) {
      ++count_;
    } else {
      SSR_ASSERT(count_ > 0, "holder count underflow in flip merge");
      --count_;
    }
    if (holders_ != nullptr) (*holders_)[e.node] = e.value != 0;
    if (count_ == 0 && !in_zero_) {
      ++zero_intervals_;
      in_zero_ = true;
    } else if (count_ > 0) {
      in_zero_ = false;
    }
    min_ = std::min(min_, count_);
    max_ = std::max(max_, count_);
  }

  Time cursor_;
  std::size_t count_;
  std::size_t min_;
  std::size_t max_;
  bool in_zero_;
  Time zero_time_ = 0.0;
  std::uint64_t zero_intervals_ = 0;
  std::uint64_t handovers_ = 0;
  std::vector<bool>* holders_;
  const IntervalObserver* observer_;
  std::vector<std::size_t> cursors_;
};

}  // namespace pdes
}  // namespace ssr::msgpass
