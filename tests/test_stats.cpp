#include "netsim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ddpm::netsim {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownSequence) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(RunningStat, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.add(3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 3.5);
}

TEST(RunningStat, MergeMatchesCombinedStream) {
  RunningStat a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmptyIsIdentity) {
  RunningStat a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.mean(), mean);
}

TEST(RunningStat, MergeDisjointRanges) {
  // Two accumulators over non-overlapping value ranges — the shape produced
  // by per-replication snapshots that are merged serially afterwards.
  RunningStat low, high, all;
  for (int i = 0; i < 50; ++i) {
    low.add(double(i));
    all.add(double(i));
  }
  for (int i = 1000; i < 1050; ++i) {
    high.add(double(i));
    all.add(double(i));
  }
  low.merge(high);
  EXPECT_EQ(low.count(), all.count());
  EXPECT_NEAR(low.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(low.variance(), all.variance(), 1e-6);
  EXPECT_EQ(low.min(), 0.0);
  EXPECT_EQ(low.max(), 1049.0);
  EXPECT_EQ(low.sum(), all.sum());
}

TEST(EwmaRate, ConvergesToSteadyRate) {
  EwmaRate rate(1000.0);
  // One event every 10 ticks -> rate 0.1.
  for (std::uint64_t t = 0; t < 100000; t += 10) rate.observe(t);
  EXPECT_NEAR(rate.rate(100000), 0.1, 0.02);
}

TEST(EwmaRate, DecaysAfterTrafficStops) {
  EwmaRate rate(100.0);
  for (std::uint64_t t = 0; t < 1000; ++t) rate.observe(t);
  const double busy = rate.rate(1000);
  const double later = rate.rate(2000);
  EXPECT_GT(busy, 0.5);
  EXPECT_LT(later, busy / 100.0);
}

TEST(EwmaRate, ZeroBeforeAnyObservation) {
  const EwmaRate rate(100.0);
  EXPECT_EQ(rate.rate(500), 0.0);
}

TEST(EwmaRate, ZeroTimeDeltaAccumulatesWithoutDecay) {
  EwmaRate rate(100.0);
  rate.observe(50);
  const double one = rate.rate(50);
  // Same-tick bursts must add weight without decaying the estimate.
  rate.observe(50);
  rate.observe(50);
  EXPECT_NEAR(rate.rate(50), 3.0 * one, 1e-12);
}

TEST(EwmaRate, NegativeTimeDeltaDoesNotResetEstimate) {
  EwmaRate warm(100.0), disordered(100.0);
  for (std::uint64_t t = 0; t < 1000; t += 10) {
    warm.observe(t);
    disordered.observe(t);
  }
  // An out-of-order timestamp would wrap the unsigned subtraction to ~2^64
  // ticks and decay the estimate to zero; it must behave like dt == 0.
  disordered.observe(500);
  EXPECT_GT(disordered.rate(990), warm.rate(990));
  EXPECT_NEAR(disordered.rate(990), warm.rate(990),
              2.0 * std::log(2.0) / 100.0);
  // The clock must not move backwards either: a later reading still decays
  // from tick 990, not from 500.
  EXPECT_LT(disordered.rate(2000), disordered.rate(990) / 100.0);
}

TEST(EwmaRate, QueryBeforeLastObservationClampsToZeroDelta) {
  EwmaRate rate(100.0);
  rate.observe(1000);
  EXPECT_EQ(rate.rate(999), rate.rate(1000));
}

}  // namespace
}  // namespace ddpm::netsim
