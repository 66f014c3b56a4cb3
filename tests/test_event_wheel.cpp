// Differential and unit coverage for the calendar-queue event wheel, the
// simulation kernel's one event queue.
//
// The wheel's contract is schedule and pop in (time, scheduling-order)
// order, with a monotonic clock. The stress tests here run the wheel beside
// a std::multimap keyed (time, schedule sequence) — an independent model
// that shares no code with the wheel's buckets or its overflow heap — on
// random same-period mixes and on irregular far-future timers that force
// the overflow heap, and require every pop to surface the model's earliest
// entry. A divergence of even one same-instant ordering fails.
#include "netsim/event_wheel.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

namespace ddpm::netsim {
namespace {

TEST(EventWheel, PopsInTimeOrder) {
  EventWheel q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventWheel, SimultaneousEventsFireInScheduleOrder) {
  EventWheel q;
  std::vector<int> fired;
  for (int i = 0; i < 50; ++i) {
    q.schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(fired[std::size_t(i)], i);
}

TEST(EventWheel, HeapEntriesWinSameInstantTies) {
  // An event scheduled for T while T was beyond the window (heap path)
  // predates — in global scheduling order — any bucket entry for T, so it
  // must fire first when the tie surfaces.
  EventWheel q;
  ASSERT_EQ(q.window(), EventWheel::kDefaultWindow);
  std::vector<int> fired;
  q.schedule(2000, [&] { fired.push_back(0); });  // out of window: heap
  EXPECT_EQ(q.heap_scheduled(), 1u);
  q.schedule(1500, [&] { fired.push_back(-1); });  // also heap
  q.pop().second();  // fires at 1500; window now covers 2000
  q.schedule(2000, [&] { fired.push_back(1); });  // bucket
  q.schedule(2000, [&] { fired.push_back(2); });  // bucket
  EXPECT_EQ(q.wheel_scheduled(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{-1, 0, 1, 2}));
}

TEST(EventWheel, PeriodicCadenceStaysOnBucketPath) {
  EventWheel q;
  // A self-rescheduling periodic event with period << window: after the
  // initial schedule, every reschedule lands in a bucket.
  struct Tick {
    EventWheel* q;
    int remaining;
    SimTime period;
    void operator()() {
      if (--remaining > 0) q->schedule(q->last_popped_time() + period, *this);
    }
  };
  q.schedule(7, Tick{&q, 5000, 7});
  std::uint64_t pops = 0;
  while (!q.empty()) {
    q.pop().second();
    ++pops;
  }
  EXPECT_EQ(pops, 5000u);
  EXPECT_EQ(q.heap_scheduled(), 0u);
  EXPECT_EQ(q.wheel_scheduled(), 5000u);
}

TEST(EventWheel, FarEndOfWindowWrapsIntoTheCursorWord) {
  // With the cursor at 40, time 1040 lands in bucket 16: the cursor's own
  // bitmap word, below the cursor's bit. The scan reaches it only on its
  // wrap-around pass, after every other word.
  EventWheel q;
  q.schedule(40, [] {});
  q.pop().second();
  q.schedule(40 + 1000, [] {});
  EXPECT_EQ(q.heap_scheduled(), 0u);
  EXPECT_EQ(q.next_time(), 1040u);
  EXPECT_EQ(q.pop().first, 1040u);
  EXPECT_TRUE(q.empty());
}

TEST(EventWheel, FarTimersOverflowToHeapAndStillFireInOrder) {
  EventWheel q;
  std::vector<int> fired;
  q.schedule(500000, [&] { fired.push_back(2); });   // far: heap
  q.schedule(3, [&] { fired.push_back(0); });        // near: bucket
  q.schedule(900000, [&] { fired.push_back(3); });   // far: heap
  q.schedule(1000, [&] { fired.push_back(1); });     // near: bucket
  EXPECT_EQ(q.heap_scheduled(), 2u);
  EXPECT_EQ(q.wheel_scheduled(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventWheel, NextTimeReportsEarliest) {
  EventWheel q;
  q.schedule(42, [] {});
  q.schedule(7, [] {});
  EXPECT_EQ(q.next_time(), 7u);
  q.schedule(5000, [] {});  // beyond the window: overflow heap
  EXPECT_EQ(q.next_time(), 7u);
  q.pop().second();
  q.pop().second();
  EXPECT_EQ(q.next_time(), 5000u);
}

TEST(EventWheel, TakeDueStopsAtTheHorizonOnBothPaths) {
  EventWheel q;
  std::vector<int> fired;
  q.schedule(5000, [&fired] { fired.push_back(2); });  // overflow heap
  q.schedule(40, [&fired] { fired.push_back(1); });    // bucket
  EXPECT_EQ(q.take_due(39), EventWheel::kNoTicket);  // declining changes nothing
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.last_popped_time(), 0u);
  EventWheel::Ticket due = q.take_due(40);  // due exactly at the horizon
  ASSERT_NE(due, EventWheel::kNoTicket);
  EXPECT_EQ(q.last_popped_time(), 40u);
  EXPECT_EQ(q.size(), 1u);  // taken, no longer pending
  q.fire(due);
  EXPECT_EQ(q.take_due(4999), EventWheel::kNoTicket);
  EXPECT_EQ(q.next_time(), 5000u);
  due = q.take_due(std::numeric_limits<SimTime>::max());
  ASSERT_NE(due, EventWheel::kNoTicket);
  EXPECT_EQ(q.last_popped_time(), 5000u);
  q.fire(due);
  EXPECT_EQ(q.take_due(std::numeric_limits<SimTime>::max()),
            EventWheel::kNoTicket);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.last_popped_time(), 5000u);
}

TEST(EventWheel, ClearEmptiesQueue) {
  EventWheel q;
  for (int i = 0; i < 5; ++i) q.schedule(SimTime(i), [] {});
  q.schedule(100000, [] {});  // overflow heap
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.last_popped_time(), 0u);
  // The cleared wheel is reusable from time zero.
  bool fired = false;
  q.schedule(1, [&fired] { fired = true; });
  auto [when, action] = q.pop();
  action();
  EXPECT_EQ(when, 1u);
  EXPECT_TRUE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventWheel, MoveOnlyActionsAreSupported) {
  // std::function rejects move-only callables; InlineAction must not.
  EventWheel q;
  auto owned = std::make_unique<int>(7);
  int seen = 0;
  q.schedule(1, [&seen, owned = std::move(owned)] { seen = *owned; });
  q.pop().second();
  EXPECT_EQ(seen, 7);
}

TEST(EventWheel, ReservePreservesBehavior) {
  EventWheel q;
  q.reserve(1000);
  std::vector<int> fired;
  for (int i = 10; i-- > 0;) {
    q.schedule(SimTime(i), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LT(fired[i - 1], fired[i]);
  }
  EXPECT_EQ(fired.size(), 10u);
}

TEST(EventWheel, StressRandomOrderStaysSorted) {
  EventWheel q;
  // Pseudo-random insertion with a tiny xorshift; times span the window
  // many times over, so most land in the overflow heap and come into
  // window as the cursor advances. Pops must be nondecreasing.
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    q.schedule(x % 100000, [] {});
  }
  SimTime last = 0;
  std::size_t popped = 0;
  while (!q.empty()) {
    auto [when, action] = q.pop();
    EXPECT_GE(when, last);
    last = when;
    ++popped;
  }
  EXPECT_EQ(popped, 5000u);
}

TEST(EventWheel, WindowEdgeSplitsBucketAndHeap) {
  // From cursor c the window is [c, c + W): c + W - 1 is the last bucketed
  // time and c + W the first overflow one, whatever the cursor's phase.
  EventWheel q;
  const SimTime w = q.window();
  q.schedule(300, [] {});
  q.pop().second();  // cursor = 300
  std::vector<SimTime> fired;
  q.schedule(300 + w, [&fired, w] { fired.push_back(300 + w); });
  EXPECT_EQ(q.heap_scheduled(), 1u);
  q.schedule(300 + w - 1, [&fired, w] { fired.push_back(300 + w - 1); });
  EXPECT_EQ(q.wheel_scheduled(), 2u);
  EXPECT_EQ(q.next_time(), 300 + w - 1);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<SimTime>{300 + w - 1, 300 + w}));
}

TEST(EventWheel, CustomWindowRoutesByItsOwnWidth) {
  EventWheel q(64);
  EXPECT_EQ(q.window(), 64u);
  std::vector<int> fired;
  q.schedule(64, [&] { fired.push_back(2); });  // first time past the window
  q.schedule(63, [&] { fired.push_back(1); });
  q.schedule(0, [&] { fired.push_back(0); });
  EXPECT_EQ(q.heap_scheduled(), 1u);
  EXPECT_EQ(q.wheel_scheduled(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(EventWheel, ZeroDelayScheduleFiresAfterSameInstantPeers) {
  // An action that schedules at its own instant runs after every event
  // already pending for that instant — on the bucket path, and when the
  // instant's earlier events sat in the overflow heap.
  EventWheel q;
  std::vector<int> fired;
  q.schedule(10, [&] {
    fired.push_back(0);
    q.schedule(10, [&] { fired.push_back(3); });
  });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(10, [&] { fired.push_back(2); });
  q.schedule(5000, [&] {  // beyond the window: heap
    fired.push_back(4);
    q.schedule(5000, [&] { fired.push_back(7); });  // now in window: bucket
  });
  q.schedule(5000, [&] { fired.push_back(5); });
  q.schedule(5000, [&] { fired.push_back(6); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventWheel, CursorJumpPastWholeWindowsReusesBuckets) {
  // A pop that jumps the clock ten windows ahead must leave no bucket
  // state from the previous lap: new events that map onto the same bucket
  // indices fire at their own times.
  EventWheel q;
  const SimTime w = q.window();
  std::vector<SimTime> fired;
  const auto record = [&fired](SimTime t) {
    return [&fired, t] { fired.push_back(t); };
  };
  q.schedule(5, record(5));
  q.schedule(5 + 10 * w, record(5 + 10 * w));  // heap
  q.pop().second();
  q.pop().second();  // cursor = 5 + 10W
  q.schedule(5 + 10 * w, record(5 + 10 * w));          // bucket 5 again
  q.schedule(4 + 11 * w, record(4 + 11 * w));          // wraps to bucket 4
  q.schedule(6 + 10 * w, record(6 + 10 * w));
  EXPECT_EQ(q.heap_scheduled(), 1u);
  EXPECT_EQ(q.next_time(), 5 + 10 * w);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<SimTime>{5, 5 + 10 * w, 5 + 10 * w,
                                         6 + 10 * w, 4 + 11 * w}));
}

TEST(EventWheel, HeapTiesFireInScheduleOrder) {
  // Only overflow entries: same-instant order comes from the heap's
  // sequence numbers alone.
  EventWheel q;
  std::vector<int> fired;
  for (int i = 0; i < 40; ++i) {
    const SimTime when = 100000 + SimTime(i % 3);  // 0,1,2,0,1,2,...
    q.schedule(when, [&fired, i] { fired.push_back(i); });
  }
  EXPECT_EQ(q.heap_scheduled(), 40u);
  EXPECT_EQ(q.wheel_scheduled(), 0u);
  while (!q.empty()) q.pop().second();
  std::vector<int> expected;
  for (int phase = 0; phase < 3; ++phase) {
    for (int i = phase; i < 40; i += 3) expected.push_back(i);
  }
  EXPECT_EQ(fired, expected);
}

TEST(EventWheel, SizeCountsBucketAndHeapEntries) {
  EventWheel q;
  for (int i = 0; i < 3; ++i) q.schedule(SimTime(i), [] {});
  q.schedule(50000, [] {});
  q.schedule(60000, [] {});
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.next_time(), 0u);
  EXPECT_EQ(q.size(), 5u);  // next_time() only looks
  for (std::size_t left = 5; left-- > 0;) {
    q.pop();
    EXPECT_EQ(q.size(), left);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventWheel, ClearDestroysPendingCapturedState) {
  auto token = std::make_shared<int>(0);
  EventWheel q;
  q.schedule(3, [token] {});
  q.schedule(3, [token] {});
  q.schedule(50000, [token] {});  // heap
  EXPECT_EQ(token.use_count(), 4);
  q.clear();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventWheel, DestructionReleasesPendingCapturedState) {
  auto token = std::make_shared<int>(0);
  {
    EventWheel q;
    for (int i = 0; i < 3; ++i) q.schedule(3, [token] {});
    q.schedule(70000, [token] {});
    q.pop();  // the bucket for t=3 is left partly drained
    EXPECT_EQ(token.use_count(), 4);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventWheel, PopMovesTheActionOutOfItsSlot) {
  // The popped action owns the callable; the released slot keeps no copy,
  // so captured state dies with the popped action.
  auto token = std::make_shared<int>(0);
  EventWheel q;
  q.schedule(1, [token] {});
  q.schedule(60000, [token] {});
  {
    auto popped = q.pop();
    EXPECT_EQ(popped.first, 1u);
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 2);
  {
    auto popped = q.pop();
    EXPECT_EQ(popped.first, 60000u);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventWheel, TimesAtTheEndOfTheClockStayOrdered) {
  // The last representable instant is also the scan's "no bucket" value;
  // a real event there must still fire, after the heap entry it ties with.
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  EventWheel q;
  std::vector<int> fired;
  q.schedule(kMax - 100, [&] { fired.push_back(0); });  // heap
  q.schedule(kMax, [&] { fired.push_back(2); });        // heap
  EXPECT_EQ(q.pop().first, kMax - 100);
  q.schedule(kMax - 50, [&] { fired.push_back(1); });   // bucket
  q.schedule(kMax, [&] { fired.push_back(3); });        // bucket
  EXPECT_EQ(q.next_time(), kMax - 50);
  std::vector<SimTime> times;
  while (!q.empty()) {
    auto [when, action] = q.pop();
    times.push_back(when);
    action();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(times, (std::vector<SimTime>{kMax - 50, kMax, kMax}));
}

TEST(EventWheelDeathTest, WindowMustBeAPowerOfTwoOfAtLeast64) {
  EXPECT_DEATH({ EventWheel q(100); }, "power of two");
  EXPECT_DEATH({ EventWheel q(32); }, "power of two");
}

TEST(EventWheelDeathTest, SchedulingInTheSimulatedPastIsFatal) {
  EXPECT_DEATH(
      {
        EventWheel q;
        q.schedule(100, [] {});
        q.pop().second();
        q.schedule(50, [] {});  // behind the popped watermark
      },
      "simulated past");
}

/// Random schedule/pop sequence checked against the (time, sequence)
/// model after every operation: each pop must surface the model's earliest
/// entry, with same-instant events in scheduling order.
void run_differential(std::uint64_t seed, std::uint64_t near_span,
                      std::uint64_t far_bias, int steps,
                      std::size_t window = EventWheel::kDefaultWindow) {
  EventWheel wheel(window);
  std::multimap<std::pair<SimTime, std::uint64_t>, std::uint64_t> model;
  std::uint64_t seq = 0;
  std::uint64_t fired_token = 0;
  bool fired = false;

  std::uint64_t x = seed;
  auto rnd = [&x](std::uint64_t bound) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % bound;
  };
  auto pop_and_compare = [&] {
    ASSERT_EQ(wheel.next_time(), model.begin()->first.first);
    fired = false;
    auto [when, action] = wheel.pop();
    action();
    ASSERT_TRUE(fired);
    ASSERT_EQ(when, model.begin()->first.first);
    ASSERT_EQ(fired_token, model.begin()->second)
        << "same-instant FIFO order diverged at t=" << when;
    model.erase(model.begin());
  };

  for (int step = 0; step < steps; ++step) {
    // Six in ten operations schedule, so the pending set keeps growing
    // and the window wraps over a deep queue.
    if (rnd(10) < 6 || model.empty()) {
      // Mostly near-future (bucket) times; far_bias controls how often a
      // timestamp lands beyond the wheel window (overflow heap).
      SimTime when = wheel.last_popped_time() + rnd(near_span);
      if (far_bias != 0 && rnd(far_bias) == 0) when += 100000 + rnd(100000);
      const std::uint64_t token = seq;
      wheel.schedule(when, [&fired_token, &fired, token] {
        fired_token = token;
        fired = true;
      });
      model.emplace(std::make_pair(when, seq++), token);
    } else {
      pop_and_compare();
    }
    ASSERT_EQ(wheel.size(), model.size());
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (!model.empty()) {
    ASSERT_FALSE(wheel.empty());
    pop_and_compare();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(EventWheel, DifferentialStressNearWindowMix) {
  // Times within the window: pure bucket path against the model.
  run_differential(0x243f6a8885a308d3ull, 800, 0, 20000);
}

TEST(EventWheel, DifferentialStressSamePeriodHeavy) {
  // Tiny spread: massive same-instant collisions stress FIFO tie-breaks.
  run_differential(0x9e3779b97f4a7c15ull, 4, 0, 20000);
}

TEST(EventWheel, DifferentialStressIrregularOverflowMix) {
  // One in eight schedules jumps far beyond the window, landing in the
  // wheel's overflow heap; ordering across the bucket/heap boundary —
  // including ties as far events come into window — must still match.
  run_differential(0xd1b54a32d192ed03ull, 1200, 8, 20000);
}

TEST(EventWheel, DifferentialStressSmallWindow) {
  // A 64-tick window under a 100-tick near spread: about a third of the
  // near schedules overflow and re-enter as the window slides, and the
  // scan wraps the one-word bitmap on almost every pop.
  run_differential(0xbf58476d1ce4e5b9ull, 100, 16, 20000, 64);
}

}  // namespace
}  // namespace ddpm::netsim
