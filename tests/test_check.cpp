// Contract-layer tests: the macros themselves, plus death tests proving
// the wired invariants actually fire where the tooling pass installed them
// (event-wheel monotonicity, torus coordinate ranges).
#include "core/check.hpp"

#include <gtest/gtest.h>

#include "netsim/event_wheel.hpp"
#include "topology/torus.hpp"

namespace ddpm {
namespace {

TEST(Check, PassingCheckIsSilent) {
  DDPM_CHECK(1 + 1 == 2);
  DDPM_CHECK(true, "with a message");
  DDPM_DCHECK(2 * 2 == 4, "also fine");
  SUCCEED();
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH(DDPM_CHECK(false, "deliberate failure"),
               "DDPM_CHECK failure: false \\(deliberate failure\\)");
}

TEST(CheckDeathTest, MessageIsOptional) {
  EXPECT_DEATH(DDPM_CHECK(2 < 1), "DDPM_CHECK failure: 2 < 1 at");
}

TEST(CheckDeathTest, UnreachableAborts) {
  EXPECT_DEATH(DDPM_UNREACHABLE("impossible branch"),
               "DDPM_UNREACHABLE failure: reached \\(impossible branch\\)");
}

#if DDPM_ENABLE_DCHECKS
TEST(CheckDeathTest, DcheckActiveInDebugBuilds) {
  EXPECT_DEATH(DDPM_DCHECK(false, "debug-only failure"),
               "DDPM_DCHECK failure: false");
}
#else
TEST(Check, DcheckCompiledOutInReleaseBuilds) {
  int evaluations = 0;
  // The condition must not be evaluated, only odr-used.
  DDPM_DCHECK(++evaluations > 0);
  EXPECT_EQ(evaluations, 0);
}
#endif

// The invariant the whole simulation rests on: once an event at time t has
// fired, nothing may be scheduled before t — otherwise the discrete-event
// loop would deliver packets into the past and every latency metric in
// Tables 1-3 would silently skew.
TEST(CheckDeathTest, NonMonotonicEventInsertFires) {
  netsim::EventWheel queue;
  queue.schedule(10, [] {});
  (void)queue.pop();  // watermark is now 10
  EXPECT_DEATH(queue.schedule(5, [] {}),
               "DDPM_CHECK failure:.*event scheduled in the simulated past");
}

TEST(Check, MonotonicScheduleAtWatermarkIsAllowed) {
  netsim::EventWheel queue;
  queue.schedule(10, [] {});
  (void)queue.pop();
  queue.schedule(10, [] {});  // equal to the watermark: legal
  queue.schedule(11, [] {});
  EXPECT_EQ(queue.size(), 2u);
}

TEST(CheckDeathTest, PopOnEmptyQueueFires) {
  netsim::EventWheel queue;
  EXPECT_DEATH((void)queue.pop(), "DDPM_CHECK failure:.*pop on empty wheel");
}

// Coordinate-range contract in the torus wraparound math: ring_delta's
// modular reduction is only overflow-safe for genuine coordinates.
TEST(CheckDeathTest, OutOfRangeCoordinateFires) {
  const topo::Torus torus({4, 4});
  EXPECT_DEATH((void)torus.ring_delta(0, 99, 0),
               "DDPM_CHECK failure:.*coordinate outside \\[0, k\\)");
  EXPECT_DEATH((void)torus.ring_delta(-1, 2, 1),
               "DDPM_CHECK failure:.*coordinate outside \\[0, k\\)");
}

TEST(CheckDeathTest, OutOfRangeDimensionFires) {
  const topo::Torus torus({4, 4});
  EXPECT_DEATH((void)torus.ring_delta(0, 1, 7),
               "DDPM_CHECK failure:.*dimension out of range");
}

TEST(Check, InRangeRingDeltaUnaffected) {
  const topo::Torus torus({5, 5});
  EXPECT_EQ(torus.ring_delta(0, 4, 0), -1);  // wraparound is the short way
  EXPECT_EQ(torus.ring_delta(4, 0, 1), +1);
  EXPECT_EQ(torus.ring_delta(1, 3, 0), +2);
}

}  // namespace
}  // namespace ddpm
