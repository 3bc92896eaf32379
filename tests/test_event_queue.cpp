// Differential test for pdes::EventQueue, the bucketed queue every CST
// shard pops its events from: over random push/pop interleavings it must
// pop exactly the records std::priority_queue pops on the same
// (time, order) key. Each pattern aims at one part of the queue: ties
// broken by `order` inside a bucket, about 10^5 live records in chained
// bucket chunks, the late heap (pushes into and before the bucket being
// drained), the overflow tier (exponential tails, times far beyond the
// ring), the occupancy bitmap (a few records on a 16,384-bucket ring), a
// queue drained empty and refilled much later, and 10^5 records pushed
// before the first pop, as the engine's start() does. The last four aim at
// the counting sort that orders a bucket of more than 32 records through
// sub-buckets: one bucket of 10^5 records, 10^5 records at one time (a
// single run, sorted by comparison), records on a bucket's two edges, and
// records past 2^62 buckets, which all share the far bucket.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <vector>

#include "msgpass/pdes.hpp"
#include "util/rng.hpp"

namespace ssr::msgpass::pdes {
namespace {

struct Later {
  bool operator()(const HeapRec& a, const HeapRec& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.order > b.order;
  }
};

using Reference = std::priority_queue<HeapRec, std::vector<HeapRec>, Later>;

class Differential {
 public:
  /// The queue under test cuts time into buckets of @p width ticks and
  /// keeps a ring of @p buckets of them.
  Differential(std::uint64_t seed, Time width, std::size_t buckets)
      : rng_(seed), queue_(width, buckets) {}

  /// Pushes a record at time @p t with a unique key whose creator part is
  /// random (so key order is unrelated to push order).
  void push_at(Time t) {
    HeapRec rec;
    rec.time = t;
    rec.order = make_order(rng_.below(1000), seq_);
    rec.slot = seq_++;
    rec.kind = static_cast<EvKind>(rng_.below(4));
    rec.port = static_cast<std::uint16_t>(rng_.below(2));
    rec.flags = static_cast<std::uint8_t>(rng_.below(16));
    queue_.push(rec);
    ref_.push(rec);
  }

  /// Pushes a record with a time from @p distinct_times values spaced
  /// @p step apart, starting at @p base.
  void push(double base, std::uint64_t distinct_times, double step) {
    push_at(base + static_cast<double>(rng_.below(distinct_times)) * step);
  }

  /// Pops one record from both queues and checks they agree; returns it.
  /// The first disagreement ends the test: every later pop would differ.
  HeapRec pop() {
    const std::size_t size = queue_.size();
    const HeapRec got = queue_.top();
    const HeapRec want = ref_.top();
    if (size != ref_.size() || got.time != want.time ||
        got.order != want.order || got.slot != want.slot ||
        got.kind != want.kind || got.port != want.port ||
        got.flags != want.flags) {
      ADD_FAILURE() << "pop " << pops_ << ", " << ref_.size()
                    << " records left: the queue (size " << size << ") gave ("
                    << got.time << ", " << got.order
                    << "), std::priority_queue gave (" << want.time << ", "
                    << want.order << ")";
      throw std::runtime_error("event queue diverged");
    }
    queue_.pop();
    ref_.pop();
    ++pops_;
    return got;
  }

  void drain() {
    while (!ref_.empty()) pop();
    EXPECT_TRUE(queue_.empty());
  }

  Rng& rng() { return rng_; }
  std::size_t size() const { return ref_.size(); }
  std::uint64_t pops() const { return pops_; }

 private:
  Rng rng_;
  std::uint32_t seq_ = 0;
  std::uint64_t pops_ = 0;
  EventQueue queue_;
  Reference ref_;
};

TEST(EventQueue, MatchesPriorityQueueOnBalancedInterleavings) {
  // Eight times, 0.5 apart, against a ring that reaches 1.75 ticks: the
  // late heap, the ring and the overflow tier all hold records.
  Differential d(1, 0.25, 8);
  for (int i = 0; i < 200000; ++i) {
    if (d.size() == 0 || d.rng().bernoulli(0.5)) {
      d.push(0.0, 8, 0.5);
    } else {
      d.pop();
    }
  }
  d.drain();
  EXPECT_GT(d.pops(), 90000u);
}

TEST(EventQueue, MatchesPriorityQueueWithAHundredThousandLiveRecords) {
  // 64 times, each in its own bucket of about 1,500 records: long chunk
  // chains, all inside the ring.
  Differential d(2, 1.0 / 64, 1024);
  std::size_t peak = 0;
  while (d.size() < 100000) {
    if (d.size() == 0 || d.rng().bernoulli(0.8)) {
      d.push(0.0, 64, 0.25);
    } else {
      d.pop();
    }
    peak = std::max(peak, d.size());
  }
  while (d.size() > 0) {
    if (d.rng().bernoulli(0.2)) {
      d.push(0.0, 64, 0.25);
    } else {
      d.pop();
    }
  }
  EXPECT_GE(peak, 100000u);
  d.drain();
}

TEST(EventQueue, MatchesPriorityQueueOnTheSimulatorsHoldPattern) {
  // The engine pops the minimum and schedules its successors at or after
  // its time, so the live keys cluster just above the popped one; a
  // successor at the popped time lands in the bucket being drained.
  Differential d(3, 0.5 / 32, 256);
  for (int i = 0; i < 5000; ++i) d.push(0.0, 16, 0.5);
  for (int i = 0; i < 200000; ++i) {
    const HeapRec rec = d.pop();
    const auto children = d.rng().below(3) + (d.size() < 4000 ? 1 : 0);
    for (std::uint64_t c = 0; c < children; ++c) d.push(rec.time, 4, 0.5);
    if (d.size() == 0) d.push(rec.time, 4, 0.5);
  }
  d.drain();
}

TEST(EventQueue, MatchesPriorityQueueOnExponentialTails) {
  // Transit delays of delay_min + Exp(mean 0.5), as DelayModel::
  // kExponentialTail draws them, against a ring reaching one tick: the
  // tail's records wait in the overflow tier and migrate into the ring.
  Differential d(4, 0.5 / 32, 64);
  for (int i = 0; i < 3000; ++i) d.push_at(d.rng().exponential(2.0));
  for (int i = 0; i < 200000; ++i) {
    const HeapRec rec = d.pop();
    const auto children = d.rng().below(3) + (d.size() < 2000 ? 1 : 0);
    for (std::uint64_t c = 0; c < children; ++c) {
      d.push_at(rec.time + 0.5 + d.rng().exponential(0.5));
    }
    if (d.size() == 0) d.push_at(rec.time + 0.5);
  }
  d.drain();
}

TEST(EventQueue, MatchesPriorityQueueFarBeyondTheRing) {
  // A ring reaching a quarter tick under times spread over a thousand
  // ticks: nearly every record passes through the overflow tier, and the
  // ring often empties, so the queue jumps to the overflow's first bucket.
  Differential d(5, 1.0 / 64, 16);
  double now = 0.0;
  for (int i = 0; i < 20000; ++i) d.push_at(1000.0 * d.rng().uniform01());
  for (int i = 0; i < 200000; ++i) {
    if (d.size() == 0 || d.rng().bernoulli(0.5)) {
      const double ahead = d.rng().bernoulli(0.5) ? 0.1 : 1000.0;
      d.push_at(now + ahead * d.rng().uniform01());
    } else {
      now = d.pop().time;
    }
  }
  EXPECT_GT(d.pops(), 90000u);
  d.drain();
}

TEST(EventQueue, MatchesPriorityQueueOnASparseRing) {
  // bench_tail's plan: 16,384 buckets of 44/16,380 ticks for a handful of
  // live records, each popped record scheduling a transit U[0.05, 3.05] or
  // a refresh 40 * U[0.9, 1.1] ahead. Thousands of empty buckets, spread
  // over many bitmap words, lie between most pops, and the scan for the
  // next occupied one wraps around the ring.
  Differential d(9, 44.0 / 16380, 16384);
  for (int i = 0; i < 12; ++i) d.push_at(40.0 * d.rng().uniform01());
  for (int i = 0; i < 200000; ++i) {
    const double t = d.pop().time;
    d.push_at(t + (d.rng().bernoulli(0.8)
                       ? 0.05 + 3.0 * d.rng().uniform01()
                       : 40.0 * (0.9 + 0.2 * d.rng().uniform01())));
  }
  d.drain();
}

TEST(EventQueue, MatchesPriorityQueueOnPushesIntoAndBeforeTheDrainedBucket) {
  // After each pop at t: records in the bucket being drained, before it,
  // before t itself, and a few buckets ahead.
  const double width = 0.25;
  Differential d(6, width, 16);
  for (int i = 0; i < 2000; ++i) d.push_at(4.0 * d.rng().uniform01());
  for (int i = 0; i < 200000; ++i) {
    const double t = d.pop().time;
    switch (d.rng().below(5)) {
      case 0:
        d.push_at(t);  // same time, a random key before or after the pop's
        break;
      case 1:
        d.push_at(t + width * d.rng().uniform01());
        break;
      case 2:
        d.push_at(t - 3.0 * width * d.rng().uniform01());
        break;
      default:
        d.push_at(t + 4.0 * width * d.rng().uniform01());
        break;
    }
    if (d.size() < 1000 || d.rng().bernoulli(0.5)) {
      d.push_at(t + 8.0 * width * d.rng().uniform01());
    }
  }
  d.drain();
}

TEST(EventQueue, MatchesPriorityQueueWhenRefilledMuchLaterAfterDraining) {
  // Each cycle drains the queue to empty, then refills it after a gap
  // below one bucket, inside the ring, or far beyond it.
  Differential d(7, 0.5 / 32, 256);
  const double gaps[] = {1e-3, 2.0, 1e3, 1e6};
  double base = 0.0;
  for (int cycle = 0; cycle < 24; ++cycle) {
    for (int i = 0; i < 2000; ++i) d.push_at(base + 6.0 * d.rng().uniform01());
    while (d.size() > 500) base = std::max(base, d.pop().time);
    for (int i = 0; i < 1000; ++i) d.push_at(base + 6.0 * d.rng().uniform01());
    while (d.size() > 0) base = std::max(base, d.pop().time);
    base += gaps[cycle % 4];
  }
  EXPECT_EQ(d.pops(), 24u * 3000u);
}

TEST(EventQueue, MatchesPriorityQueueAfterAHundredThousandPushesBeforeThePop) {
  // The engine's start(): one refresh timer per node in [0, 8) before the
  // first pop, then deliveries U[0.5, 1] and timers 8 * U[0.9, 1.1] ahead
  // of each popped event, with the ring the engine sizes for them.
  Differential d(8, 0.5 / 32, 1024);
  for (int i = 0; i < 100000; ++i) d.push_at(8.0 * d.rng().uniform01());
  for (int i = 0; i < 300000; ++i) {
    const double t = d.pop().time;
    d.push_at(t + (d.rng().bernoulli(0.9)
                       ? 0.5 + 0.5 * d.rng().uniform01()
                       : 8.0 * (0.9 + 0.2 * d.rng().uniform01())));
  }
  d.drain();
}

TEST(EventQueue, MatchesPriorityQueueOnOneBucketOfAHundredThousandRecords) {
  // 10^5 uniform times in bucket [2, 3): 2^15 sub-buckets of about three
  // records each.
  Differential d(10, 1.0, 8);
  for (int i = 0; i < 100000; ++i) d.push_at(2.0 + d.rng().uniform01());
  d.drain();
  EXPECT_EQ(d.pops(), 100000u);
}

TEST(EventQueue, MatchesPriorityQueueOnAHundredThousandRecordsAtOneTime) {
  // One time, distinct orders: every record falls into one sub-bucket,
  // so the bucket is a single run of 10^5 records.
  Differential d(11, 1.0, 8);
  for (int i = 0; i < 100000; ++i) d.push_at(2.5);
  d.drain();
  EXPECT_EQ(d.pops(), 100000u);
}

TEST(EventQueue, MatchesPriorityQueueOnABucketsEdges) {
  // More than 32 records exactly on bucket 5's lower edge, and as many
  // one ulp below its upper edge, which land in the first and the last
  // sub-bucket; with a width of 0.1, t / width rounds, so the edge records
  // may also fall into the neighbouring buckets.
  for (const double width : {0.25, 0.1}) {
    Differential d(12, width, 16);
    const double lower = 5.0 * width;
    const double upper = std::nextafter(6.0 * width, 0.0);
    for (int i = 0; i < 40; ++i) d.push_at(lower);
    for (int i = 0; i < 40; ++i) d.push_at(upper);
    for (int i = 0; i < 40; ++i) d.push_at(lower + width * d.rng().uniform01());
    d.drain();
    EXPECT_EQ(d.pops(), 120u);
  }
}

TEST(EventQueue, MatchesPriorityQueueInTheFarBucket) {
  // Times at and past 2^62 buckets all map to the far bucket; the
  // sub-bucket index of each is clamped to the last one, except 2^62
  // itself, which opens the bucket.
  Differential d(13, 1.0, 16);
  for (int j = 1; j <= 64; ++j) d.push_at(1e300 * j);
  for (int j = 1; j <= 8; ++j) d.push_at(1e300 * j);  // equal times
  d.push_at(0x1.0p62);
  d.push_at(3.0);
  d.drain();
  EXPECT_EQ(d.pops(), 74u);
}

TEST(EventQueue, EmptyAndSingleRecord) {
  EventQueue queue(0.5 / 32, 256);
  EXPECT_TRUE(queue.empty());
  EXPECT_THROW(queue.top(), std::logic_error);
  EXPECT_THROW(queue.pop(), std::logic_error);
  HeapRec rec;
  rec.time = 2.0;
  rec.order = make_order(7, 3);
  queue.push(rec);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.top().order, rec.order);
  queue.pop();
  EXPECT_TRUE(queue.empty());
  EXPECT_THROW(queue.top(), std::logic_error);
}

TEST(EventQueue, RejectsABadBucketGeometry) {
  EXPECT_THROW(EventQueue(0.0, 8), std::invalid_argument);
  EXPECT_THROW(EventQueue(1.0, 1), std::invalid_argument);
  EXPECT_THROW(EventQueue(1.0, 12), std::invalid_argument);
}

}  // namespace
}  // namespace ssr::msgpass::pdes
