// The sharded conservative parallel discrete-event engine that runs the
// cached sensornet transform (CST, paper Algorithm 4, after Herman 2003),
// written once over a topology front: msgpass::CstSimulation (ring) and
// graph::GraphCstSimulation (CSR graph) supply the neighbourhood and the
// protocol calls, and pdes::Engine below supplies everything else — the
// shards, the link discipline, the fault model, the event handlers, the
// round loop and the coverage reduction.
//
// The execution model is conservative, null-message-free PDES on global
// lookahead windows:
//
//   * the node set is partitioned into W contiguous shards, each owned by
//     one worker with its own event queue, payload slab and flip log;
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
//     queue in key order, so per-node draw order is key order, which is a
//     global trajectory fact;
//   * statistics that depend on the *interleaving* of events (holder-set
//     flips) are logged per shard with their event keys and merged in key
//     order before integration, so zero-token dwell, handover counts and
//     observer callbacks see the exact sequence the one-worker run sees.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/fault_plan.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

/// Tunable network parameters, shared by both topology fronts.
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
  /// hardware thread; clamped to the node count). Results are
  /// byte-identical at any value — this is purely a wall-clock knob.
  std::size_t workers = 1;
  /// Shared fault schedule (runtime/fault_plan.hpp). An empty plan is
  /// completely inert: it consumes no RNG draws, so seeded runs reproduce
  /// the pre-fault-plan trajectories bit for bit. Window drops count as
  /// losses; corruption behind a checksum is loss (Lemma 9), so corrupt
  /// frames are marked lost too. A partition `cut=a/b` names ring edges:
  /// on a graph it cuts only the edges (a, a+1) and (b, b+1), where those
  /// exist.
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

/// Slim event record: 24 bytes, no payload — payloads live in a per-shard
/// slab, so sorting or sifting records never moves a protocol state.
struct HeapRec {
  Time time = 0.0;
  std::uint64_t order = 0;       ///< (creator, seq) tie-break
  std::uint32_t slot = kNoSlot;  ///< payload slab index (kDelivery)
  /// The link the event concerns, numbered among its creator's links: the
  /// link a delivery travelled (for a ghost, the receiver's link back to
  /// the sender) or the link a kLinkFree frees.
  std::uint16_t port = 0;
  EvKind kind = EvKind::kTimer;
  std::uint8_t flags = 0;  ///< kEv* bits
};
static_assert(sizeof(HeapRec) == 24, "event records stay 24 bytes");

/// Most links one node may have: HeapRec::port numbers them from 0.
inline constexpr std::size_t kMaxDegree = std::size_t{1} << 16;

inline bool key_before(const HeapRec& a, const HeapRec& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.order < b.order;
}

/// Min-heap of HeapRecs on the (time, order) key, stored as an implicit
/// 4-ary tree in one vector: a node's four children sit next to each other
/// (96 bytes), so a sift-down reads about two cache lines per level. It is
/// EventQueue's late and overflow tier.
class EventHeap {
 public:
  bool empty() const { return recs_.empty(); }

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
      if (!key_before(rec, recs_[parent])) break;
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
        if (key_before(recs_[c], recs_[best])) best = c;
      }
      if (!key_before(recs_[best], last)) break;
      recs_[hole] = recs_[best];
      hole = best;
    }
    recs_[hole] = last;
  }

 private:
  static constexpr std::size_t kArity = 4;

  std::vector<HeapRec> recs_;
};

/// A shard's event queue: a calendar queue (Brown, CACM 1988) with a
/// ladder queue's overflow tier and second rung (Tang, Goh & Thng, ACM
/// TOMACS 2005). It pops HeapRecs in exact (time, order) key order.
///
/// Time is cut into buckets of a fixed width: a record at time t lies in
/// bucket floor(t / width), a monotone function of t, so a record in a
/// lower bucket is earlier than every record in a higher one. The records
/// sit in one of four places:
///
///   * the current bucket, sorted on the key once, when it becomes
///     current, and then consumed front to back. A large bucket is sorted
///     in linear time: a counting sort spreads it over sub-buckets of
///     about four records each (the ladder's second rung), and only those
///     short runs are sorted on the key;
///   * the late heap: records pushed into or before the current bucket.
///     The engine pushes few, as its delays are mostly many buckets long;
///     boundary deliveries landing in the current bucket are the usual
///     ones;
///   * the ring: the next `buckets - 1` buckets, each an unsorted list of
///     16-record chunks drawn from one pool and returned to it when the
///     bucket is sorted, so bucket storage follows the live records
///     instead of keeping each bucket's peak;
///   * the overflow heap: records beyond the ring (exponential-tail and
///     reordered transit delays), which move into the ring as it
///     advances.
///
/// The minimum is the smaller of the late heap's top and the current
/// bucket's front. When both are used up, the next occupied bucket becomes
/// current, found in an occupancy bitmap with one bit per ring bucket, so
/// a run of empty buckets costs one word read per 64; with the ring empty,
/// the overflow's first bucket becomes current. Keys are unique, so the
/// pop order is the key order whichever tiers the records passed through.
class EventQueue {
 public:
  EventQueue() : EventQueue(1.0, 2) {}

  /// @param width    bucket width in ticks
  /// @param buckets  ring size, a power of two: the ring reaches
  ///                 `buckets - 1` buckets past the current one
  EventQueue(Time width, std::size_t buckets)
      : inv_width_(1.0 / width),
        mask_(buckets - 1),
        ring_(buckets),
        occupied_((buckets + 63) / 64) {
    SSR_REQUIRE(width > 0.0, "bucket width must be positive");
    SSR_REQUIRE(buckets >= 2 && std::has_single_bit(buckets),
                "bucket count must be a power of two >= 2");
  }

  /// Sizes the chunk pool for @p records live records, and the current
  /// bucket and its sub-bucket counts for @p bucket_records, so that none
  /// grows in steady state (growth would happen on a worker thread, in its
  /// own malloc arena).
  void reserve(std::size_t records, std::size_t bucket_records) {
    const std::size_t chunks = records / kChunk + ring_.size();
    chunks_.reserve(chunks);
    chunk_next_.reserve(chunks);
    current_.reserve(bucket_records);
    sub_end_.reserve(sub_buckets(bucket_records) + 1);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The minimum record. Non-const: it may make the next bucket current.
  const HeapRec& top() {
    settle();
    return from_late_ ? late_.top() : current_[cursor_];
  }

  void push(const HeapRec& rec) {
    const std::int64_t k = bucket_of(rec.time);
    if (k <= cur_) {
      late_.push(rec);
    } else if (k - cur_ <= static_cast<std::int64_t>(mask_)) {
      append(k, rec);
    } else {
      overflow_.push(rec);
    }
    ++size_;
  }

  void pop() {
    settle();
    if (from_late_) {
      late_.pop();
    } else {
      ++cursor_;
    }
    --size_;
  }

 private:
  static constexpr std::size_t kChunk = 16;
  /// Longest run sorted by insertion. A bucket this small is one run.
  static constexpr std::size_t kRun = 32;
  static constexpr std::uint32_t kNoChunk =
      std::numeric_limits<std::uint32_t>::max();
  /// Bucket of every time at or past 2^62 buckets: keeps the index in
  /// range of std::int64_t, and the pop order exact (they sort together).
  static constexpr std::int64_t kFarBucket = std::int64_t{1} << 62;

  struct Chunk {
    std::array<HeapRec, kChunk> recs;
  };
  struct Bucket {
    std::uint32_t head = kNoChunk;  ///< the chunk being filled
    std::uint32_t count = 0;
  };

  std::int64_t bucket_of(Time t) const {
    const double x = t * inv_width_;
    if (!(x >= 0.0)) return -1;  // before time 0: late, never in the ring
    if (x >= static_cast<double>(kFarBucket)) return kFarBucket;
    return static_cast<std::int64_t>(x);
  }

  /// Points from_late_ at the tier holding the minimum, first making the
  /// next non-empty bucket current if the current one and the late heap
  /// are both used up.
  void settle() {
    SSR_ASSERT(size_ > 0, "top or pop of an empty event queue");
    const bool drained = cursor_ == current_.size();
    if (drained && late_.empty()) {
      advance();
      from_late_ = false;
      return;
    }
    from_late_ =
        !late_.empty() && (drained || key_before(late_.top(), current_[cursor_]));
  }

  void advance() {
    current_.clear();
    cursor_ = 0;
    if (ring_count_ != 0) {
      // Every overflow record lies past the ring, so the first occupied
      // bucket holds the minimum.
      const std::size_t next = static_cast<std::size_t>(cur_ + 1) & mask_;
      cur_ += 1 + static_cast<std::int64_t>(gap_to_occupied(next));
    } else {
      // Everything left is in the overflow tier, at least a ring's length
      // ahead: jump to its first bucket.
      SSR_ASSERT(!overflow_.empty(), "event queue lost a record");
      cur_ = bucket_of(overflow_.top().time);
    }
    // The ring now reaches bucket cur_ + mask_.
    while (!overflow_.empty()) {
      const std::int64_t k = bucket_of(overflow_.top().time);
      if (k - cur_ > static_cast<std::int64_t>(mask_)) break;
      append(k, overflow_.top());
      overflow_.pop();
    }
    const std::size_t slot = static_cast<std::size_t>(cur_) & mask_;
    SSR_ASSERT(ring_[slot].count != 0,
               "overflow records did not reach the ring");
    load(slot);
  }

  /// Ring slots from @p slot, cyclically, to the first occupied one. The
  /// ring must hold a record.
  std::size_t gap_to_occupied(std::size_t slot) const {
    std::size_t w = slot / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (slot % 64));
    for (std::size_t seen = 0; bits == 0; ++seen) {
      SSR_ASSERT(seen < occupied_.size(),
                 "event queue ring holds records but no bucket is marked");
      w = w + 1 == occupied_.size() ? 0 : w + 1;
      bits = occupied_[w];
    }
    return (w * 64 + static_cast<std::size_t>(std::countr_zero(bits)) - slot) &
           mask_;
  }

  void append(std::int64_t k, const HeapRec& rec) {
    const std::size_t slot = static_cast<std::size_t>(k) & mask_;
    Bucket& b = ring_[slot];
    const std::size_t fill = b.count % kChunk;
    if (fill == 0) {
      std::uint32_t c = free_;
      if (c != kNoChunk) {
        free_ = chunk_next_[c];
      } else {
        SSR_ASSERT(chunks_.size() < kNoChunk, "event queue chunk pool full");
        c = static_cast<std::uint32_t>(chunks_.size());
        chunks_.emplace_back();
        chunk_next_.push_back(kNoChunk);
      }
      chunk_next_[c] = b.head;
      b.head = c;
      occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }
    chunks_[b.head].recs[fill] = rec;
    ++b.count;
    ++ring_count_;
  }

  /// Sub-buckets a bucket of @p count records is cut into: about four
  /// records each, a power of two.
  static std::size_t sub_buckets(std::size_t count) {
    return std::bit_ceil(count / 4);
  }

  /// Calls @p f(recs, fill) on each chunk of bucket @p b, head first; with
  /// @p release, returns each chunk to the pool after the call.
  template <typename F>
  void for_each_chunk(const Bucket& b, bool release, F&& f) {
    std::size_t fill = (b.count - 1) % kChunk + 1;  // the head chunk's
    for (std::uint32_t c = b.head; c != kNoChunk;) {
      f(chunks_[c].recs.data(), fill);
      const std::uint32_t next = chunk_next_[c];
      if (release) {
        chunk_next_[c] = free_;
        free_ = c;
      }
      c = next;
      fill = kChunk;
    }
  }

  /// Moves the bucket in ring slot @p slot into current_, sorted, and
  /// returns its chunks to the pool. A bucket of more than kRun records
  /// is counting-sorted into S sub-buckets of equal time width first: a
  /// record goes to floor((t / width - cur_) * S), bucket_of's own
  /// product, so the index never decreases as t grows and equal times
  /// share a sub-bucket. It is clamped to [0, S - 1], which also gathers
  /// the far bucket's records, at any distance past 2^62 buckets. One
  /// pass counts the sub-buckets, a prefix sum places them and a second
  /// pass scatters the records; each sub-bucket is then sorted as a run.
  void load(std::size_t slot) {
    Bucket& b = ring_[slot];
    const std::size_t count = b.count;
    if (count <= kRun) {
      for_each_chunk(b, true, [this](const HeapRec* recs, std::size_t fill) {
        current_.insert(current_.end(), recs, recs + fill);
      });
      sort_run(current_.data(), current_.data() + count);
    } else {
      const std::size_t subs = sub_buckets(count);
      const double base = static_cast<double>(cur_);
      const double scale = static_cast<double>(subs);
      const double last = scale - 1.0;
      // A local copy: the scatter's stores of doubles could alias a member.
      const double inv_width = inv_width_;
      const auto sub_of = [=](const HeapRec& rec) -> std::size_t {
        const double y = (rec.time * inv_width - base) * scale;
        return y > 0.0 ? static_cast<std::size_t>(std::min(y, last)) : 0;
      };
      // Counts land one slot up, so the prefix sum leaves each
      // sub-bucket's start in sub_end_[j]; the scatter then advances it
      // to the sub-bucket's end.
      sub_end_.assign(subs + 1, 0);
      for_each_chunk(b, false, [&](const HeapRec* recs, std::size_t fill) {
        for (std::size_t i = 0; i < fill; ++i) ++sub_end_[sub_of(recs[i]) + 1];
      });
      for (std::size_t j = 1; j < subs; ++j) sub_end_[j] += sub_end_[j - 1];
      current_.resize(count);
      HeapRec* const out = current_.data();
      for_each_chunk(b, true, [&](const HeapRec* recs, std::size_t fill) {
        for (std::size_t i = 0; i < fill; ++i) {
          out[sub_end_[sub_of(recs[i])]++] = recs[i];
        }
      });
      std::size_t begin = 0;
      for (std::size_t j = 0; j < subs; ++j) {
        sort_run(out + begin, out + sub_end_[j]);
        begin = sub_end_[j];
      }
    }
    ring_count_ -= count;
    b = Bucket{};
    occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  }

  /// Sorts [first, last) on the key: by insertion up to kRun records, and
  /// with std::sort beyond (a cluster of equal times, which
  /// NetworkParams allows with delay_min == delay_max).
  static void sort_run(HeapRec* first, HeapRec* last) {
    const auto len = static_cast<std::size_t>(last - first);
    if (len > kRun) {
      std::sort(first, last, [](const HeapRec& a, const HeapRec& b) {
        return key_before(a, b);
      });
      return;
    }
    for (std::size_t i = 1; i < len; ++i) {
      const HeapRec rec = first[i];
      std::size_t j = i;
      for (; j > 0 && key_before(rec, first[j - 1]); --j) {
        first[j] = first[j - 1];
      }
      first[j] = rec;
    }
  }

  double inv_width_;
  std::size_t mask_;
  std::int64_t cur_ = -1;      ///< the current bucket
  std::size_t size_ = 0;
  std::size_t ring_count_ = 0;  ///< records in the ring's buckets
  std::vector<HeapRec> current_;  ///< the current bucket, sorted
  std::size_t cursor_ = 0;
  bool from_late_ = false;
  EventHeap late_;
  EventHeap overflow_;
  std::vector<Bucket> ring_;
  std::vector<std::uint64_t> occupied_;  ///< bit per ring slot: count != 0
  std::vector<Chunk> chunks_;
  std::vector<std::uint32_t> chunk_next_;  ///< bucket list or free list
  std::uint32_t free_ = kNoChunk;
  std::vector<std::uint32_t> sub_end_;  ///< load()'s sub-bucket bounds
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
  /// @param holders  current per-node holder bits, updated on every flip
  CoverageAccumulator(Time start, std::size_t initial_count,
                      std::vector<bool>& holders,
                      const IntervalObserver& observer)
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
  /// shards pop their queues in key order) as one merged sequence, then
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
      if (observer_) observer_(cursor_, end, holders_);
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
    holders_[e.node] = e.value != 0;
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
  std::vector<bool>& holders_;
  const IntervalObserver& observer_;
  std::vector<std::size_t> cursors_;
};

/// Rejects a node with more links than the 16-bit HeapRec::port numbers.
/// A front whose degrees can exceed it (the CSR graph) calls this per node
/// before any per-link work; the ring front's degree is always 2.
inline void require_port_range(std::size_t node, std::size_t degree) {
  if (degree <= kMaxDegree) return;
  throw std::invalid_argument(
      "node " + std::to_string(node) + " has degree " +
      std::to_string(degree) + ", above the " + std::to_string(kMaxDegree) +
      " links the 16-bit event port field can number");
}

/// The CST engine. Each node v runs the untouched state-reading protocol
/// against a local *cache* of each neighbour's state. Whenever v receives
/// a neighbour's state it updates the cache, schedules (at most) one
/// enabled rule after the service delay, and broadcasts its own state on
/// every outgoing link; a periodic timer also rebroadcasts, so lost
/// messages are eventually repaired.
///
/// Links follow paper §5 ¶1: each directed link carries at most one
/// message at a time. A send onto a busy link parks the *latest* state as
/// pending and transmits it the moment the link frees (a node broadcasting
/// its current state never needs to queue more than the newest value).
/// Loss is decided per transmission; a lost message still occupies the
/// link for its transit time. Duplication replays a delivery once after a
/// fresh delay, and NetworkParams::fault_plan adds scripted drops,
/// reordering, and pause and crash-restart windows.
///
/// A node's token predicate reads only its own state and caches, so each
/// event can flip only the acting node's bit: the engine evaluates one
/// predicate per event and logs the flip under the event's key.
///
/// The topology front derives from Engine<Front, State> (CRTP: the hook
/// calls are static, with no virtual dispatch on the per-event path) and
/// provides, for node i and directed link e:
///
///   first_link(i)   node i's outgoing links are [first_link(i),
///                   first_link(i + 1)), i in [0, n]; node i's cache of the
///                   neighbour behind link e is cache_[e]
///   link_dest(e)    the receiver of link e
///   link_reverse(e) the receiver's link back to the sender, i.e. the
///                   receiver's cache slot of the sender
///   enabled(i)      some rule is enabled on i's local view
///   fire(i)         applies i's enabled rule to states_[i]; false if none
///   holds(i)        the token / activity predicate on i's local view
///
/// and calls start(links) once those answer.
template <typename Front, typename State>
class Engine {
 public:
  using Config = std::vector<State>;
  using IntervalObserver = msgpass::IntervalObserver;

  std::size_t size() const { return states_.size(); }
  Time now() const { return now_; }
  /// Current simulated time on the fault/telemetry clock (microseconds).
  double fault_clock_us() const { return now_ * params_.microseconds_per_tick; }
  /// Resolved shard count the engine actually runs with.
  std::size_t workers() const { return workers_; }

  /// Definition 2: every cache equals the neighbour's current state.
  bool coherent() const {
    for (std::size_t e = 0; e < cache_.size(); ++e) {
      if (!(cache_[e] == states_[front().link_dest(e)])) return false;
    }
    return true;
  }

  /// Resets every cache to the neighbour's true state (the "legitimate
  /// configuration with cache-coherence" hypothesis of Theorem 3) and
  /// re-judges every node's holder bit from its new view.
  void make_caches_coherent() {
    for (std::size_t e = 0; e < cache_.size(); ++e) {
      cache_[e] = states_[front().link_dest(e)];
    }
    recompute_holders();
  }

  /// Fills every cache with an arbitrary state produced by @p gen (the
  /// "arbitrary cache values" hypothesis of Lemma 9 — bad incoherence).
  /// Draws from a dedicated coordinator stream in link order, so the
  /// corruption pattern is worker-independent.
  void randomize_caches(const std::function<State(Rng&)>& gen) {
    for (State& s : cache_) s = gen(aux_rng_);
    recompute_holders();
  }

  std::size_t holder_count() const { return holder_count_; }

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
    return run_impl(now_ + duration, [](const Front&) { return false; });
  }

  /// Runs until @p stop(front) holds or the deadline passes. The predicate
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

 protected:
  Engine(Config initial, NetworkParams params)
      : states_(std::move(initial)),
        params_(std::move(params)),
        aux_rng_(params_.seed),
        injector_(params_.fault_plan, std::max<std::size_t>(states_.size(), 2)),
        has_plan_(!params_.fault_plan.empty()),
        has_windows_(!params_.fault_plan.windows.empty()) {
    params_.validate();
  }

  /// Sizes the per-link state for @p links directed links, makes the
  /// caches coherent and arms every node's refresh timer (and any rule
  /// already enabled). Called by the front once its topology answers.
  void start(std::size_t links) {
    const std::size_t n = states_.size();
    SSR_REQUIRE(n < (std::size_t{1} << 32),
                "node count must fit the 32-bit event-key node field");
    workers_ = resolve_workers(params_.workers, n);
    layout_ = ShardLayout(n, workers_);

    cache_.resize(links);
    holders_.assign(n, false);
    holder_bit_.assign(n, 0);
    make_caches_coherent();
    link_busy_.assign(links, 0);
    link_has_pending_.assign(links, 0);
    link_pending_.resize(links);
    exec_pending_.assign(n, 0);
    node_seq_.assign(n, 0);
    node_rng_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      node_rng_.push_back(stream_rng(params_.seed, i));
    }

    // Bucket plan: a ring that reaches past every bounded delay the engine
    // schedules — a transit, a service time, a refresh period with its +10%
    // jitter — so only exponential tails and reordered frames wait in the
    // overflow. Buckets are kBucketsPerLookahead to a delay_min, or wider
    // where that many would not fit in kMaxRingBuckets (a long refresh
    // period over a short delay_min).
    const double reach = std::max({params_.delay_max, params_.service_max,
                                   1.1 * params_.refresh_interval});
    const Time width =
        std::max(params_.delay_min / kBucketsPerLookahead,
                 reach / static_cast<double>(kMaxRingBuckets - 4));
    const std::size_t buckets = std::bit_ceil(static_cast<std::size_t>(
        std::min(reach / width + 2.0, static_cast<double>(kMaxRingBuckets))));
    shards_.resize(workers_);
    for (std::size_t s = 0; s < workers_; ++s) {
      Shard& sh = shards_[s];
      sh.id = s;
      const std::size_t lo = layout_.begin(s);
      const std::size_t hi = layout_.end(s);
      const std::size_t span_links =
          front().first_link(hi) - front().first_link(lo);
      // Steady-state in-flight records: one delivery per incoming link
      // (each also freeing its sender's link) plus one timer and at most
      // one execution per node; ghosts, bursts and the kLinkFree records
      // of shard-crossing links spill past the reserve. The deliveries
      // spread over the transit-delay range and fill the densest buckets.
      const std::size_t records = span_links + 2 * (hi - lo) + 64;
      sh.queue = EventQueue(width, buckets);
      sh.queue.reserve(records,
                       static_cast<std::size_t>(
                           static_cast<double>(records) * width /
                           std::max(params_.delay_max - params_.delay_min,
                                    width)));
      sh.slab.reserve(span_links + 16);
      sh.outbox.resize(workers_);
    }
    for (std::size_t i = 0; i < n; ++i) {
      Shard& sh = shards_[layout_.shard_of(i)];
      HeapRec timer;
      timer.time = node_rng_[i].uniform01() * params_.refresh_interval;
      timer.order = make_order(i, node_seq_[i]++);
      timer.kind = EvKind::kTimer;
      sh.queue.push(timer);
      maybe_schedule_execution(sh, i, 0.0);
    }
  }

  Config states_;
  std::vector<State> cache_;   ///< cache_[e]: view of link e's receiver
  std::vector<bool> holders_;  ///< maintained in merged flip order

 private:
  /// A delivery crossing a shard boundary, staged in the sender shard's
  /// outbox until the round barrier.
  struct BoundaryFrame {
    Time time = 0.0;
    std::uint64_t order = 0;
    State payload{};
    std::uint16_t port = 0;
    std::uint8_t flags = 0;
  };

  struct alignas(64) Shard {
    std::size_t id = 0;
    EventQueue queue;
    PayloadSlab<State> slab;
    std::vector<FlipEntry> flips;
    std::vector<std::vector<BoundaryFrame>> outbox;  ///< per dest shard
    Time clock = 0.0;  ///< last popped event time (monotonicity guard)
    ShardCounters ctr;
  };

  /// Event-queue buckets per delay_min window: a round drains about this
  /// many buckets (fewer where they widen), each sorted once.
  static constexpr double kBucketsPerLookahead = 32.0;
  /// Ring-length cap (128 KiB of buckets per shard): past it, the buckets
  /// widen instead.
  static constexpr std::size_t kMaxRingBuckets = std::size_t{1} << 14;

  const Front& front() const { return static_cast<const Front&>(*this); }
  Front& front() { return static_cast<Front&>(*this); }

  void recompute_holders() {
    holder_count_ = 0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      const bool h = front().holds(i);
      holder_bit_[i] = h ? 1 : 0;
      holders_[i] = h;
      if (h) ++holder_count_;
    }
  }

  /// Sends node i's current state on each of its links, in link order; a
  /// busy link parks it as pending instead (overwriting any older pending
  /// value — only the newest state matters).
  void broadcast(Shard& sh, std::size_t i, Time now) {
    const std::size_t end = front().first_link(i + 1);
    for (std::size_t e = front().first_link(i); e < end; ++e) {
      if (link_busy_[e]) {
        link_pending_[e] = states_[i];
        link_has_pending_[e] = 1;
      } else {
        transmit(sh, i, e, states_[i], now);
      }
    }
  }

  void transmit(Shard& sh, std::size_t i, std::size_t e, const State& payload,
                Time now) {
    link_busy_[e] = 1;
    ++sh.ctr.transmissions;
    Rng& rng = node_rng_[i];
    double delay = params_.draw_delay(rng);
    std::uint8_t flags = 0;
    if (rng.bernoulli(params_.loss_probability)) flags |= kEvLost;
    const std::size_t dest = front().link_dest(e);
    if (has_plan_) {
      // The injector draws in a fixed order (and an inert probability
      // consumes no draws), so the whole trajectory stays a pure function
      // of (seed, plan).
      const runtime::FrameFate fate = injector_.on_send(
          i, dest, now * params_.microseconds_per_tick, rng);
      // Corruption behind a checksum is loss (Lemma 9); a window drop
      // still occupies the link for its transit time, like any loss.
      if (fate.drop || fate.corrupt_bits > 0) flags |= kEvLost;
      if (fate.duplicate) flags |= kEvForceDuplicate;
      // Reordering on a one-message-at-a-time link = the frame arriving
      // stale: stretch its transit past the frames that overtake it.
      if (fate.reorder) {
        delay += params_.draw_delay(rng) + params_.draw_delay(rng);
      }
    }
    // delay >= delay_min in every model, so arrive lands at or beyond the
    // current round's horizon whenever it crosses a shard boundary.
    const Time arrive = advance_time(now, delay);
    // Every transmission takes two keys: the delivery (i, s) and the link
    // completion (i, s + 1).
    const std::uint32_t delivery_seq = node_seq_[i]++;
    const std::uint32_t free_seq = node_seq_[i]++;
    const std::uint64_t order = make_order(i, delivery_seq);
    const auto port = static_cast<std::uint16_t>(e - front().first_link(i));
    const std::size_t dest_shard = layout_.shard_of(dest);
    if (dest_shard == sh.id) {
      // One record for both: no key lies between (arrive, i, s) and
      // (arrive, i, s + 1), and handling the delivery schedules nothing at
      // `arrive`, so the completion would pop right after the delivery.
      HeapRec rec;
      rec.time = arrive;
      rec.order = order;
      rec.slot = (flags & kEvLost) ? kNoSlot : sh.slab.intern(payload);
      rec.port = port;
      rec.kind = EvKind::kDelivery;
      rec.flags = flags | kEvFreeLink;
      sh.queue.push(rec);
      return;
    }
    sh.outbox[dest_shard].push_back({arrive, order, payload, port, flags});
    // The sender frees its own link when the transmission completes: the
    // receiver's shard must not write the sender's link state.
    HeapRec link_free;
    link_free.time = arrive;
    link_free.order = make_order(i, free_seq);
    link_free.port = port;
    link_free.kind = EvKind::kLinkFree;
    sh.queue.push(link_free);
  }

  /// If a rule is enabled at node i and no execution is already pending,
  /// schedule one after the service (critical-section occupancy) delay.
  void maybe_schedule_execution(Shard& sh, std::size_t i, Time now) {
    if (exec_pending_[i] || !front().enabled(i)) return;
    exec_pending_[i] = 1;
    const double service =
        params_.service_min +
        node_rng_[i].uniform01() * (params_.service_max - params_.service_min);
    HeapRec rec;
    rec.time = advance_time(now, service);
    rec.order = make_order(i, node_seq_[i]++);
    rec.kind = EvKind::kExecute;
    sh.queue.push(rec);
  }

  /// Algorithm 4 "on receipt" at node v: cache update (@p from is v's
  /// cache slot of the sender), one rule execution, broadcast.
  void handle_delivery(Shard& sh, const HeapRec& rec, std::size_t v,
                       std::size_t from, bool down) {
    ++sh.ctr.deliveries;
    if (rec.flags & kEvLost) {
      ++sh.ctr.losses;
      return;
    }
    const State payload = sh.slab.take(rec.slot);
    // A frame addressed to a scripted-down node was sent before the window
    // opened (frames sent during it are dropped at the sender): the radio
    // is off, so it is lost on arrival.
    if (down) {
      ++sh.ctr.losses;
      return;
    }
    // Duplication fault: replay this delivery once more after a fresh
    // delay. Duplicates can themselves not duplicate (one replay max).
    // The ghost is created (and keyed) by the receiver: it is a local
    // artifact of the receiver's radio, not a second transmission.
    if (!(rec.flags & kEvDuplicate)) {
      Rng& rng = node_rng_[v];
      const bool dup = rng.bernoulli(params_.duplicate_probability) ||
                       (rec.flags & kEvForceDuplicate) != 0;
      if (dup) {
        HeapRec ghost;
        ghost.time = advance_time(rec.time, params_.draw_delay(rng));
        ghost.order = make_order(v, node_seq_[v]++);
        ghost.slot = sh.slab.intern(payload);
        ghost.port = static_cast<std::uint16_t>(from - front().first_link(v));
        ghost.kind = EvKind::kDelivery;
        ghost.flags = kEvDuplicate;
        sh.queue.push(ghost);
      }
    }
    cache_[from] = payload;
    maybe_schedule_execution(sh, v, rec.time);
    broadcast(sh, v, rec.time);
  }

  /// The deferred rule execution: re-evaluate against the current caches
  /// (they may have changed during the service window), apply, broadcast,
  /// and re-arm if the node is still enabled.
  void handle_execute(Shard& sh, std::size_t v, Time now, bool down) {
    SSR_ASSERT(exec_pending_[v], "execute event without a pending flag");
    exec_pending_[v] = 0;
    // A down node executes no rules; the first delivery after the window
    // closes reschedules it.
    if (down || !front().fire(v)) return;
    ++sh.ctr.rule_executions;
    broadcast(sh, v, now);
    // Convergence rules can chain (e.g. Rule 5 then Rule 3) without any
    // further message arriving; keep the node scheduled while enabled.
    maybe_schedule_execution(sh, v, now);
  }

  void handle_timer(Shard& sh, std::size_t v, Time now, bool down) {
    // A down node's radio is off; its timer stays armed so it resumes
    // broadcasting when the window closes.
    double period = params_.refresh_interval;
    if (!down) {
      broadcast(sh, v, now);
      // Mild jitter avoids artificial lock-step among the nodes' timers.
      period *= 0.9 + 0.2 * node_rng_[v].uniform01();
    }
    HeapRec next;
    next.time = advance_time(now, period);
    next.order = make_order(v, node_seq_[v]++);
    next.kind = EvKind::kTimer;
    sh.queue.push(next);
  }

  /// The sender's transmission on link @p e completes: the link frees and
  /// carries the parked newest state, if any. Pure bookkeeping on the
  /// sender side: not a protocol event (not counted, not crash-gated).
  void free_link(Shard& sh, std::size_t sender, std::size_t e, Time now) {
    SSR_ASSERT(link_busy_[e], "link-free on an idle link");
    link_busy_[e] = 0;
    if (link_has_pending_[e]) {
      link_has_pending_[e] = 0;
      transmit(sh, sender, e, link_pending_[e], now);
    }
  }

  void dispatch(Shard& sh, const HeapRec& rec) {
    const std::size_t creator = order_creator(rec.order);
    const std::size_t link = front().first_link(creator) + rec.port;
    if (rec.kind == EvKind::kLinkFree) {
      free_link(sh, creator, link, rec.time);
      return;
    }
    // The acting node: the receiver for deliveries, the owner for timers
    // and executions. A ghost's creator *is* its receiver, and its link is
    // the receiver's own link back to the sender.
    const bool arrival =
        rec.kind == EvKind::kDelivery && (rec.flags & kEvDuplicate) == 0;
    const std::size_t v = arrival ? front().link_dest(link) : creator;
    bool down = false;
    if (has_windows_) {
      // Scripted crash/pause windows, checked on the event's own node.
      // Timers fire every refresh interval, so the crash reset lands
      // within one interval of the window opening.
      const double t_us = rec.time * params_.microseconds_per_tick;
      if (injector_.take_crash(v, t_us)) {
        states_[v] = State{};
        const std::size_t end = front().first_link(v + 1);
        for (std::size_t e = front().first_link(v); e < end; ++e) {
          cache_[e] = State{};
        }
        ++sh.ctr.crash_restarts;
      }
      down = injector_.node_down(v, t_us);
    }
    switch (rec.kind) {
      case EvKind::kDelivery:
        // Delivered even while the receiver is down: the frame is counted
        // and discarded (see the down check in handle_delivery).
        handle_delivery(sh, rec, v,
                        arrival ? front().link_reverse(link) : link, down);
        break;
      case EvKind::kTimer:
        handle_timer(sh, v, rec.time, down);
        break;
      case EvKind::kExecute:
        handle_execute(sh, v, rec.time, down);
        break;
      case EvKind::kLinkFree:
        break;  // handled above
    }
    ++sh.ctr.events;
    // Only the acting node's predicate can have changed (it reads nothing
    // but v's own state and caches); log the flip under the event's key.
    const bool post = front().holds(v);
    if (post != (holder_bit_[v] != 0)) {
      holder_bit_[v] = post ? 1 : 0;
      sh.flips.push_back({rec.time, rec.order, static_cast<std::uint32_t>(v),
                          static_cast<std::uint8_t>(post)});
    }
    if (rec.flags & kEvFreeLink) free_link(sh, creator, link, rec.time);
  }

  /// One round's worth of events for one shard: everything strictly below
  /// the horizon (and at or below the run deadline), in key order.
  void process_shard(Shard& sh, Time horizon, Time deadline) {
    while (!sh.queue.empty()) {
      const HeapRec rec = sh.queue.top();
      if (rec.time >= horizon || rec.time > deadline) break;
      SSR_ASSERT(rec.time >= sh.clock,
                 "event pop regressed below the shard clock (lookahead or "
                 "Time-precision violation)");
      sh.clock = rec.time;
      sh.queue.pop();
      dispatch(sh, rec);
    }
  }

  /// Moves boundary deliveries staged for shard w into its queue. Runs
  /// after the processing barrier: it reads other shards' outboxes and
  /// writes only shard w's queue and slab.
  void drain_inbound(std::size_t w) {
    Shard& sh = shards_[w];
    for (std::size_t o = 0; o < workers_; ++o) {
      if (o == w) continue;
      for (const BoundaryFrame& f : shards_[o].outbox[w]) {
        HeapRec rec;
        rec.time = f.time;
        rec.order = f.order;
        rec.slot = (f.flags & kEvLost) ? kNoSlot : sh.slab.intern(f.payload);
        rec.port = f.port;
        rec.kind = EvKind::kDelivery;
        rec.flags = f.flags;
        sh.queue.push(rec);
      }
    }
  }

  template <typename StopFn>
  CoverageStats run_impl(Time deadline, StopFn&& stop) {
    CoverageStats stats;
    stopped_ = false;
    for (Shard& sh : shards_) sh.ctr = ShardCounters{};
    if (stop(front())) {
      stopped_ = true;
      // An empty window: its initial count is its only count.
      stats.min_holders = stats.max_holders = holder_count_;
      return stats;
    }
    const Time start = now_;
    CoverageAccumulator acc(start, holder_count_, holders_, observer_);
    std::vector<std::vector<FlipEntry>*> flip_logs;
    flip_logs.reserve(workers_);
    for (Shard& sh : shards_) flip_logs.push_back(&sh.flips);
    if (workers_ > 1 && pool_ == nullptr) {
      pool_ = std::make_unique<util::ThreadPool>(workers_);
    }

    for (;;) {
      Time t_next = std::numeric_limits<Time>::infinity();
      for (Shard& sh : shards_) {
        if (!sh.queue.empty()) t_next = std::min(t_next, sh.queue.top().time);
      }
      if (t_next > deadline) break;  // also catches all-queues-empty
      // Conservative window: every event in [t_next, horizon) may be
      // processed now, because any delivery it generates is at least
      // delay_min away and so lands at or beyond the horizon (monotone
      // rounding: fl(a + b) >= fl(t_next + delay_min) for a >= t_next,
      // b >= delay_min). advance_time doubles as the progress guard.
      const Time horizon = advance_time(t_next, params_.delay_min);
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
      if (stop(front())) {
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

  NetworkParams params_;
  IntervalObserver observer_;
  Time now_ = 0.0;
  bool stopped_ = false;
  std::size_t workers_ = 1;
  ShardLayout layout_;
  Rng aux_rng_;  ///< coordinator-only draws (randomize_caches)

  std::vector<std::uint8_t> link_busy_;         ///< per directed link
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
  std::size_t holder_count_ = 0;
};

}  // namespace pdes
}  // namespace ssr::msgpass
