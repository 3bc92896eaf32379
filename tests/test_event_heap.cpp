// Differential test for pdes::EventHeap, the 4-ary heap both CST engines
// pop their events from: over random push/pop interleavings it must pop
// exactly the records std::priority_queue pops on the same (time, order)
// key. Times come from a handful of values so most comparisons are ties
// broken by `order`, and one run holds about 10^5 live records, deep
// enough for every level of the 4-ary index arithmetic to be exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
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
  explicit Differential(std::uint64_t seed) : rng_(seed) {}

  /// Pushes a record with a time from @p distinct_times values spaced
  /// @p step apart, starting at @p base, and a unique key whose creator
  /// part is random (so key order is unrelated to push order).
  void push(double base, std::uint64_t distinct_times, double step) {
    HeapRec rec;
    rec.time = base + static_cast<double>(rng_.below(distinct_times)) * step;
    rec.order = make_order(rng_.below(1000), seq_);
    rec.slot = seq_++;
    rec.kind = static_cast<EvKind>(rng_.below(4));
    rec.port = static_cast<std::uint16_t>(rng_.below(2));
    rec.flags = static_cast<std::uint8_t>(rng_.below(16));
    heap_.push(rec);
    ref_.push(rec);
  }

  /// Pops one record from both heaps and checks they agree; returns it.
  HeapRec pop() {
    EXPECT_EQ(heap_.size(), ref_.size());
    const HeapRec got = heap_.top();
    const HeapRec want = ref_.top();
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.order, want.order);
    EXPECT_EQ(got.slot, want.slot);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.port, want.port);
    EXPECT_EQ(got.flags, want.flags);
    heap_.pop();
    ref_.pop();
    ++pops_;
    return got;
  }

  void drain() {
    while (!ref_.empty()) pop();
    EXPECT_TRUE(heap_.empty());
  }

  Rng& rng() { return rng_; }
  std::size_t size() const { return ref_.size(); }
  std::uint64_t pops() const { return pops_; }

 private:
  Rng rng_;
  std::uint32_t seq_ = 0;
  std::uint64_t pops_ = 0;
  EventHeap heap_;
  Reference ref_;
};

TEST(EventHeap, MatchesPriorityQueueOnBalancedInterleavings) {
  Differential d(1);
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

TEST(EventHeap, MatchesPriorityQueueWithAHundredThousandLiveRecords) {
  Differential d(2);
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

TEST(EventHeap, MatchesPriorityQueueOnTheSimulatorsHoldPattern) {
  // The engines pop the minimum and schedule its successors at or after
  // its time, so the live keys cluster just above the popped one.
  Differential d(3);
  for (int i = 0; i < 5000; ++i) d.push(0.0, 16, 0.5);
  for (int i = 0; i < 200000; ++i) {
    const HeapRec rec = d.pop();
    const auto children = d.rng().below(3) + (d.size() < 4000 ? 1 : 0);
    for (std::uint64_t c = 0; c < children; ++c) d.push(rec.time, 4, 0.5);
    if (d.size() == 0) d.push(rec.time, 4, 0.5);
  }
  d.drain();
}

TEST(EventHeap, EmptyAndSingleRecord) {
  EventHeap heap;
  EXPECT_TRUE(heap.empty());
  EXPECT_THROW(heap.top(), std::logic_error);
  EXPECT_THROW(heap.pop(), std::logic_error);
  HeapRec rec;
  rec.time = 2.0;
  rec.order = make_order(7, 3);
  heap.push(rec);
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_EQ(heap.top().order, rec.order);
  heap.pop();
  EXPECT_TRUE(heap.empty());
}

}  // namespace
}  // namespace ssr::msgpass::pdes
