// Timer-wheel unit tests: cascade correctness across level boundaries,
// coarse-slot ordering, and deterministic firing order under a fixed
// virtual clock. The multi-ring reactor's telemetry
// determinism rests on the last property, so it is tested both directly
// and as a randomized differential against a reference priority queue.
#include "runtime/timer_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "util/rng.hpp"

namespace {

using ssr::Rng;
using ssr::runtime::TimerWheel;

// Advances @p wheel to @p tick and appends the expired timers' cookies to
// @p cookies.
void advance_cookies(TimerWheel& wheel, std::uint64_t tick,
                     std::vector<std::uint64_t>& cookies) {
  std::vector<TimerWheel::Expiry> fired;
  wheel.advance_to(tick, fired);
  for (const TimerWheel::Expiry& e : fired) cookies.push_back(e.cookie);
}

std::vector<std::uint64_t> advance(TimerWheel& wheel, std::uint64_t tick) {
  std::vector<std::uint64_t> cookies;
  advance_cookies(wheel, tick, cookies);
  return cookies;
}

TEST(TimerWheel, FiresAtExactDeadline) {
  TimerWheel wheel;
  wheel.schedule_at(10, 111);
  EXPECT_TRUE(advance(wheel, 9).empty());
  const auto fired = advance(wheel, 10);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 111u);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, NeverFiresEarly) {
  TimerWheel wheel;
  // One timer in each level's range.
  wheel.schedule_in(3, 0);          // level 0
  wheel.schedule_in(700, 1);        // level 1
  wheel.schedule_in(70'000, 2);     // level 2
  wheel.schedule_in(17'000'000, 3); // level 3
  std::vector<std::uint64_t> fired;
  advance_cookies(wheel, 2, fired);
  EXPECT_TRUE(fired.empty());
  advance_cookies(wheel, 699, fired);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{0}));
  fired.clear();
  advance_cookies(wheel, 69'999, fired);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1}));
  fired.clear();
  advance_cookies(wheel, 16'999'999, fired);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{2}));
  fired.clear();
  advance_cookies(wheel, 17'000'000, fired);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, CascadePreservesDeadlineAcrossLevelBoundary) {
  // Deadlines straddling the level-0 horizon (256) must each fire at their
  // own tick, even though they start on a coarse level-1 slot.
  TimerWheel wheel;
  std::map<std::uint64_t, std::uint64_t> want;  // deadline -> cookie
  for (std::uint64_t d = 250; d < 262; ++d) {
    wheel.schedule_at(d, d);
    want[d] = d;
  }
  for (std::uint64_t t = 0; t < 300; ++t) {
    const auto fired = advance(wheel, t);
    if (want.count(t) != 0) {
      ASSERT_EQ(fired.size(), 1u) << "tick " << t;
      EXPECT_EQ(fired[0], t);
    } else {
      EXPECT_TRUE(fired.empty()) << "tick " << t;
    }
  }
}

TEST(TimerWheel, CoarseSlotHoldsManyDeadlinesInOrder) {
  // Deadlines 1000..1003 share level-1 slot 3 but must fire on distinct
  // ticks in deadline order after the cascade at tick 768.
  TimerWheel wheel;
  wheel.schedule_at(1003, 3);
  wheel.schedule_at(1000, 0);
  wheel.schedule_at(1002, 2);
  wheel.schedule_at(1001, 1);
  std::vector<std::uint64_t> all;
  for (std::uint64_t t = 0; t <= 1003; ++t) {
    const auto fired = advance(wheel, t);
    for (auto c : fired) {
      EXPECT_EQ(c, t - 1000) << "cookie fired on wrong tick";
      all.push_back(c);
    }
  }
  EXPECT_EQ(all, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(TimerWheel, SameTickFiresInScheduleOrder) {
  TimerWheel wheel;
  for (std::uint64_t i = 0; i < 50; ++i) wheel.schedule_at(5, i);
  const auto fired = advance(wheel, 5);
  ASSERT_EQ(fired.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(fired[i], i);
}

TEST(TimerWheel, SameTickOrderSurvivesCascade) {
  // Schedule order must be preserved even when the shared deadline sits
  // beyond the level-0 horizon and the entries cascade down together.
  TimerWheel wheel;
  for (std::uint64_t i = 0; i < 20; ++i) wheel.schedule_at(5000, i);
  std::vector<std::uint64_t> fired;
  advance_cookies(wheel, 5000, fired);
  ASSERT_EQ(fired.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(fired[i], i);
}

TEST(TimerWheel, CascadedTimerFiresBeforeLaterDirectOneOnSameTick) {
  // A level-1 timer for tick 300, scheduled first, cascades into level-0
  // slot 44 at tick 256, behind a timer for the same tick that was placed
  // there directly at tick 100. Schedule order must still win.
  TimerWheel wheel;
  wheel.schedule_at(300, 1);  // delay 300: level 1
  std::vector<std::uint64_t> fired;
  advance_cookies(wheel, 100, fired);
  wheel.schedule_at(300, 2);  // delay 200: level 0
  advance_cookies(wheel, 299, fired);
  EXPECT_TRUE(fired.empty());
  advance_cookies(wheel, 300, fired);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, PastDeadlineFiresOnNextAdvance) {
  TimerWheel wheel;
  advance(wheel, 50);
  wheel.schedule_at(10, 4);  // already past; clamps to now
  std::vector<TimerWheel::Expiry> expired;
  wheel.advance_to(50, expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].cookie, 4u);
  EXPECT_EQ(expired[0].deadline, 50u);
}

TEST(TimerWheel, RescheduleLoopLikeRefreshTimer) {
  // The reactor's refresh timers re-arm themselves from the fire callback;
  // simulate 1000 periods and check perfect periodicity.
  TimerWheel wheel;
  const std::uint64_t period = 37;
  wheel.schedule_at(period, 0);
  std::uint64_t fires = 0;
  std::vector<std::uint64_t> fired;
  for (std::uint64_t t = 0; t <= period * 1000; ++t) {
    fired.clear();
    advance_cookies(wheel, t, fired);
    for (auto cookie : fired) {
      (void)cookie;
      ++fires;
      EXPECT_EQ(t % period, 0u) << "refresh fired off-period at " << t;
      wheel.schedule_at(t + period, 0);
    }
  }
  EXPECT_EQ(fires, 1000u);
}

TEST(TimerWheel, DifferentialAgainstReferenceQueue) {
  // Randomized differential vs a (deadline, seq)-ordered reference under a
  // fixed seed: identical fire sequence across all four levels.
  Rng rng(20260809);
  TimerWheel wheel;
  struct Ref {
    std::uint64_t deadline;
    std::uint64_t seq;
    std::uint64_t cookie;
    bool fired = false;
  };
  std::vector<Ref> reference;
  std::uint64_t seq = 0;
  std::uint64_t now = 0;
  std::vector<TimerWheel::Expiry> got;
  for (int step = 0; step < 4000; ++step) {
    const auto action = rng.below(10);
    if (action < 6) {
      // Schedule with a delay spanning all wheel levels.
      std::uint64_t delay = 0;
      switch (rng.below(4)) {
        case 0: delay = rng.below(200); break;
        case 1: delay = 200 + rng.below(60'000); break;
        case 2: delay = 60'000 + rng.below(1'000'000); break;
        default: delay = 16'000'000 + rng.below(20'000'000); break;
      }
      const std::uint64_t cookie = seq;
      wheel.schedule_in(delay, cookie);
      reference.push_back({now + delay, seq, cookie});
      ++seq;
    } else if (action >= 8) {
      now += rng.below(5000);
      got.clear();
      wheel.advance_to(now, got);
      // Reference: all live entries with deadline <= now, ordered by
      // (deadline, schedule seq).
      std::vector<Ref*> due;
      for (auto& r : reference) {
        if (!r.fired && r.deadline <= now) due.push_back(&r);
      }
      std::sort(due.begin(), due.end(), [](const Ref* a, const Ref* b) {
        if (a->deadline != b->deadline) return a->deadline < b->deadline;
        return a->seq < b->seq;
      });
      ASSERT_EQ(got.size(), due.size()) << "at now=" << now;
      for (std::size_t i = 0; i < due.size(); ++i) {
        EXPECT_EQ(got[i].cookie, due[i]->cookie)
            << "fire order differs at " << i;
        EXPECT_EQ(got[i].deadline, due[i]->deadline)
            << "expiry reports the wrong due tick at " << i;
        due[i]->fired = true;
      }
    }
  }
  // Everything still live must agree too.
  std::size_t ref_live = 0;
  for (const auto& r : reference) {
    if (!r.fired) ++ref_live;
  }
  EXPECT_EQ(wheel.size(), ref_live);
}

TEST(TimerWheel, DeterministicAcrossRuns) {
  // Two wheels fed the same schedule produce byte-identical fire streams.
  auto run = [] {
    Rng rng(77);
    TimerWheel wheel;
    std::vector<std::uint64_t> stream;
    std::uint64_t now = 0;
    for (int i = 0; i < 500; ++i) {
      wheel.schedule_in(rng.below(100'000), i);
      if (i % 3 == 0) {
        now += rng.below(40'000);
        advance_cookies(wheel, now, stream);
      }
    }
    advance_cookies(wheel, now + 200'000, stream);
    return stream;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
