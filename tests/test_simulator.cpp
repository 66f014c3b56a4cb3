#include "netsim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

namespace ddpm::netsim {
namespace {

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<SimTime> observed;
  sim.schedule_at(10, [&] { observed.push_back(sim.now()); });
  sim.schedule_at(25, [&] { observed.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(observed, (std::vector<SimTime>{10, 25}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  SimTime inner = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_in(5, [&] { inner = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner, 105u);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  sim.run(20);
  EXPECT_EQ(fired, 2);       // the t=20 event fires, t=30 does not
  EXPECT_EQ(sim.now(), 20u);
  sim.run(30);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunReturnsEventCount) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(SimTime(i), [] {});
  EXPECT_EQ(sim.run(), 7u);
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.schedule_in(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 9u);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] { ++fired; });
  sim.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, PastScheduleAtClampsToNow) {
  Simulator sim;
  SimTime when = 0;
  sim.schedule_at(50, [&] {
    sim.schedule_at(10, [&] { when = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(when, 50u);
}

TEST(Simulator, ClampedEventsAreCounted) {
  // The clamp keeps past-stamped events from corrupting the clock, but a
  // model leaning on it is mis-computing timestamps; the counter makes
  // that visible without turning the clamp into a hard failure.
  Simulator sim;
  sim.schedule_at(100, [&] {
    sim.schedule_at(10, [] {});   // past: clamped
    sim.schedule_at(100, [] {});  // exactly now: not a clamp
    sim.schedule_at(30, [] {});   // past: clamped
    sim.schedule_at(200, [] {});  // future: not a clamp
  });
  EXPECT_EQ(sim.clamped_events(), 0u);
  sim.run();
  EXPECT_EQ(sim.clamped_events(), 2u);
}

TEST(Simulator, ReserveDoesNotDisturbPendingEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(5, [&] { ++fired; });
  sim.reserve(4096);
  sim.schedule_at(6, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ClearPendingDropsEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] { ++fired; });
  sim.clear_pending();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, HorizonAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run(1000);
  EXPECT_EQ(sim.now(), 1000u);
}

TEST(Simulator, ZeroDelayEventsFireAtTheSameInstantAfterPendingPeers) {
  Simulator sim;
  std::vector<std::pair<SimTime, int>> seen;
  sim.schedule_at(40, [&] {
    seen.emplace_back(sim.now(), 0);
    sim.schedule_in(0, [&] { seen.emplace_back(sim.now(), 2); });
  });
  sim.schedule_at(40, [&] { seen.emplace_back(sim.now(), 1); });
  sim.schedule_at(41, [&] { seen.emplace_back(sim.now(), 3); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::pair<SimTime, int>>{
                      {40, 0}, {40, 1}, {40, 2}, {41, 3}}));
}

TEST(Simulator, RunResumesWhereAHorizonStopped) {
  Simulator sim;
  std::vector<SimTime> seen;
  for (const SimTime t : std::vector<SimTime>{10, 20, 30, 40}) {
    sim.schedule_at(t, [&] { seen.push_back(sim.now()); });
  }
  EXPECT_EQ(sim.run(25), 2u);
  EXPECT_EQ(sim.now(), 25u);
  EXPECT_EQ(sim.run(25), 0u);  // same horizon again: nothing new fires
  EXPECT_EQ(sim.pending_count(), 2u);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(sim.now(), 40u);
  EXPECT_EQ(sim.events_executed(), 4u);
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(Simulator, ScheduleAfterAnIdleHorizonIsRelativeToTheHorizon) {
  // run(until) moves the clock without popping anything, so the kernel's
  // clock runs ahead of its queue's last popped time. Relative delays and
  // the past-clamp must follow the kernel's clock.
  Simulator sim;
  sim.run(5000);
  std::vector<SimTime> seen;
  sim.schedule_in(5, [&] {
    seen.push_back(sim.now());
    sim.schedule_in(1, [&] { seen.push_back(sim.now()); });
  });
  sim.schedule_at(4000, [&] { seen.push_back(sim.now()); });  // past
  sim.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{5000, 5005, 5006}));
  EXPECT_EQ(sim.clamped_events(), 1u);
}

TEST(Simulator, ClearPendingKeepsTheClock) {
  Simulator sim;
  int dropped = 0;
  sim.schedule_at(50, [] {});
  sim.schedule_at(80, [&] { ++dropped; });
  sim.run(60);
  sim.clear_pending();
  EXPECT_EQ(sim.now(), 60u);
  EXPECT_FALSE(sim.pending());
  std::vector<SimTime> seen;
  sim.schedule_in(10, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(20, [&] { seen.push_back(sim.now()); });  // past: clamped
  sim.run();
  EXPECT_EQ(dropped, 0);
  EXPECT_EQ(seen, (std::vector<SimTime>{60, 70}));
  EXPECT_EQ(sim.clamped_events(), 1u);
}

TEST(Simulator, LongTimersInterleaveWithAShortCadence) {
  // A period-3 cadence (bucket path) runs beside timers set at time zero
  // far beyond the window (overflow heap). The timer at 4002 ties with a
  // cadence tick; it was scheduled first, so it fires first.
  const std::vector<SimTime> timers{2500, 4002, 5999};
  Simulator sim;
  std::vector<std::pair<SimTime, char>> seen;
  struct Cadence {
    Simulator* sim;
    std::vector<std::pair<SimTime, char>>* seen;
    void operator()() {
      seen->emplace_back(sim->now(), 'c');
      if (sim->now() < 6000) sim->schedule_in(3, *this);
    }
  };
  sim.schedule_at(3, Cadence{&sim, &seen});
  for (const SimTime t : timers) {
    sim.schedule_at(t, [&] { seen.emplace_back(sim.now(), 't'); });
  }
  sim.run();

  std::vector<std::pair<SimTime, char>> expected;
  for (SimTime t = 3; t <= 6000; t += 3) {
    for (const SimTime timer : timers) {
      if (timer > t - 3 && timer <= t) expected.emplace_back(timer, 't');
    }
    expected.emplace_back(t, 'c');
  }
  EXPECT_EQ(seen, expected);
}

TEST(Simulator, NestedSchedulingMatchesTimeOrderModel) {
  // Actions schedule children at random near and far delays while the run
  // is in progress. Every firing must be the earliest entry of a
  // std::multimap keyed (time, scheduling order), and the clock must read
  // that entry's time.
  Simulator sim;
  std::multimap<std::pair<SimTime, std::uint64_t>, std::uint64_t> model;
  std::uint64_t seq = 0;
  std::uint64_t budget = 20000;
  std::uint64_t mismatches = 0;
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  auto rnd = [&x](std::uint64_t bound) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % bound;
  };

  std::function<void(std::uint64_t)> on_fire;
  auto spawn = [&] {
    const SimTime delay = rnd(8) == 0 ? 2000 + rnd(50000) : rnd(300);
    const std::uint64_t id = seq++;
    model.emplace(std::make_pair(sim.now() + delay, id), id);
    if (rnd(2) == 0) {
      sim.schedule_in(delay, [&on_fire, id] { on_fire(id); });
    } else {
      sim.schedule_at(sim.now() + delay, [&on_fire, id] { on_fire(id); });
    }
  };
  on_fire = [&](std::uint64_t id) {
    const auto first = model.begin();
    if (first == model.end() || first->second != id ||
        first->first.first != sim.now()) {
      ++mismatches;
      return;
    }
    model.erase(first);
    // Six in ten firings spawn two children: the pending set grows until
    // the budget runs out, then drains.
    if (rnd(10) < 6) {
      for (int k = 0; k < 2 && budget > 0; ++k, --budget) spawn();
    }
  };

  for (int i = 0; i < 64; ++i) spawn();
  sim.run();
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(budget, 0u) << "the run drained before the budget was spent";
  EXPECT_EQ(sim.events_executed(), seq);
  EXPECT_EQ(sim.clamped_events(), 0u);
}

TEST(Simulator, EachFiredActionIsReleasedBeforeTheNextEventRuns) {
  // What an action captures is destroyed right after it runs: the next
  // event (same instant, bucket or overflow heap) already sees it gone,
  // and an event past the horizon keeps its capture until it fires.
  for (const bool stepping : {false, true}) {
    Simulator sim;
    std::vector<std::weak_ptr<int>> watch;
    std::vector<std::vector<bool>> alive;  // per event: which captures live
    auto event = [&](SimTime when) {
      auto token = std::make_shared<int>(int(watch.size()));
      watch.push_back(token);
      sim.schedule_at(when, [&, token = std::move(token)] {
        std::vector<bool> now;
        for (const auto& w : watch) now.push_back(!w.expired());
        alive.push_back(std::move(now));
      });
    };
    event(10);
    event(10);    // same instant, bucket path
    event(5000);  // beyond the window: overflow heap
    event(9000);  // past the first horizon
    if (stepping) {
      for (int i = 0; i < 3; ++i) ASSERT_TRUE(sim.step());
    } else {
      EXPECT_EQ(sim.run(8000), 3u);
    }
    // Each event saw every earlier capture released, its own and the later
    // ones still held.
    EXPECT_EQ(alive, (std::vector<std::vector<bool>>{{true, true, true, true},
                                                     {false, true, true, true},
                                                     {false, false, true, true}}));
    EXPECT_TRUE(watch[2].expired());  // released before run/step returned
    EXPECT_FALSE(watch[3].expired());  // still pending
    sim.run();
    EXPECT_TRUE(watch[3].expired());
  }
}

// ---------------------------------------------------------------------------
// Slot lifetime: each action is constructed once in a slot that never moves,
// runs there, and is destroyed there (or moved out once by pop()).

struct LifeCounts {
  int constructed = 0;
  int moved = 0;
  int destroyed = 0;
  int fired = 0;
};

/// Move-only, non-trivially-destructible capture that counts what happens
/// to it. A moved-from instance is inert: only the live one is counted
/// when it is destroyed.
class Tracked {
 public:
  explicit Tracked(LifeCounts* c) : c_(c) { ++c_->constructed; }
  Tracked(Tracked&& other) noexcept : c_(std::exchange(other.c_, nullptr)) {
    ++c_->moved;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    if (c_ != nullptr) ++c_->destroyed;
  }
  void operator()() { ++c_->fired; }

 private:
  LifeCounts* c_;
};

static_assert(InlineAction::fits_inline<Tracked>);
static_assert(!InlineAction::trivially_destructible<Tracked>,
              "Tracked must exercise the destroy path");

TEST(SimulatorSlots, MoveOnlyCaptureIsMovedInOnceAndDestroyedOnce) {
  // run and step: moved once (from the caller's temporary into its slot),
  // fired in place, destroyed once right after it runs.
  for (const bool stepping : {false, true}) {
    LifeCounts c;
    Simulator sim;
    sim.schedule_at(3, Tracked(&c));
    sim.schedule_in(50000, Tracked(&c));  // overflow heap
    EXPECT_EQ(c.moved, 2);
    if (stepping) {
      ASSERT_TRUE(sim.step());
      ASSERT_TRUE(sim.step());
    } else {
      EXPECT_EQ(sim.run(), 2u);
    }
    EXPECT_EQ(c.constructed, 2);
    EXPECT_EQ(c.moved, 2);
    EXPECT_EQ(c.fired, 2);
    EXPECT_EQ(c.destroyed, 2);
  }
}

TEST(SimulatorSlots, MoveOnlyCaptureTakenByPopIsMovedOutOnce) {
  LifeCounts c;
  EventWheel q;
  q.schedule(3, Tracked(&c));
  q.schedule(50000, Tracked(&c));  // overflow heap
  int taken = 0;
  for (const SimTime expected : {SimTime{3}, SimTime{50000}}) {
    auto [when, action] = q.pop();
    EXPECT_EQ(when, expected);
    EXPECT_EQ(c.destroyed, taken) << "pop destroyed the action it returns";
    action();
    ++taken;
  }
  EXPECT_EQ(c.constructed, 2);
  EXPECT_EQ(c.moved, 4);  // into its slot, out to the caller
  EXPECT_EQ(c.fired, 2);
  EXPECT_EQ(c.destroyed, 2);
}

TEST(SimulatorSlots, MoveOnlyCaptureDroppedByClearIsDestroyedOnce) {
  LifeCounts c;
  {
    Simulator sim;
    sim.schedule_at(3, Tracked(&c));
    sim.schedule_at(3, EventWheel::Action(Tracked(&c)));  // an Action rvalue
    sim.schedule_at(50000, Tracked(&c));                   // overflow heap
    sim.clear_pending();
    EXPECT_EQ(c.destroyed, 3);
    sim.schedule_at(7, Tracked(&c));  // left pending: the destructor drops it
  }
  EXPECT_EQ(c.constructed, 4);
  EXPECT_EQ(c.moved, 5);  // the Action rvalue moved twice: into it, then in
  EXPECT_EQ(c.fired, 0);
  EXPECT_EQ(c.destroyed, 4);
}

/// Trivially destructible capture of the shape production code uses.
struct ScalarCapture {
  Simulator* sim;
  std::uint64_t* children_fired;
  std::uint64_t* seen;
  std::uint64_t a;
  std::uint64_t b;
  void operator()() const {
    for (std::size_t i = 0; i < 3 * EventWheel::kChunkSlots + 7; ++i) {
      std::uint64_t* count = children_fired;
      sim->schedule_in(1 + i % 3, [count] { ++*count; });
    }
    seen[0] = a;  // read after the slab grew under this action
    seen[1] = b;
  }
};
static_assert(InlineAction::trivially_destructible<ScalarCapture>);

TEST(SimulatorSlots, ActionGrowingTheSlabWhileItFiresKeepsItsCaptures) {
  // A fresh kernel has no slab; each of these actions schedules more
  // events than three chunks hold while it runs, then reads its captures.
  Simulator sim;
  std::uint64_t children = 0;
  std::uint64_t seen[2] = {0, 0};
  sim.schedule_at(5, ScalarCapture{&sim, &children, seen, 0x0123456789abcdefull,
                                   0xfedcba9876543210ull});
  int owned_seen = 0;
  sim.schedule_at(6, [&sim, &children, &owned_seen,
                      owned = std::make_unique<int>(42)] {
    for (std::size_t i = 0; i < 3 * EventWheel::kChunkSlots + 7; ++i) {
      sim.schedule_in(5000 + i, [&children] { ++children; });  // heap
    }
    owned_seen = *owned;
  });
  const std::uint64_t n = 3 * EventWheel::kChunkSlots + 7;
  EXPECT_EQ(sim.run(), 2 + 2 * n);
  EXPECT_EQ(seen[0], 0x0123456789abcdefull);
  EXPECT_EQ(seen[1], 0xfedcba9876543210ull);
  EXPECT_EQ(owned_seen, 42);
  EXPECT_EQ(children, 2 * n);
}

TEST(SimulatorSlots, ClearPendingFromAFiringActionDropsOnlyPendingEvents) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  std::vector<int> fired;
  long uses_after_clear = 0;
  sim.schedule_at(10, [&, token] {
    fired.push_back(0);
    sim.clear_pending();
    uses_after_clear = token.use_count();  // this capture plus `token`
    sim.schedule_in(5, [&fired] { fired.push_back(3); });
  });
  sim.schedule_at(10, [&fired, token] { fired.push_back(1); });    // bucket
  sim.schedule_at(5000, [&fired, token] { fired.push_back(2); });  // heap
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired, (std::vector<int>{0, 3}));
  EXPECT_EQ(uses_after_clear, 2);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.now(), 15u);
  // The slots come back exactly once each: cycle every slot of a few
  // chunks through schedule and fire, with a pending set larger than all
  // slots freed so far.
  std::uint64_t count = 0;
  const std::size_t n = 4 * EventWheel::kChunkSlots;
  for (std::size_t i = 0; i < n; ++i) {
    sim.schedule_in(1 + i % 7, [&count] { ++count; });
  }
  EXPECT_EQ(sim.pending_count(), n);
  EXPECT_EQ(sim.run(), n);
  EXPECT_EQ(count, n);
  EXPECT_FALSE(sim.pending());
}

}  // namespace
}  // namespace ddpm::netsim
