// Streaming statistics used throughout the simulator: running moments
// (Welford) and EWMA rate estimation. Binned distributions are
// telemetry::HistogramHandle series.
#pragma once

#include <cstdint>

namespace ddpm::netsim {

/// Numerically stable running mean/variance/min/max (Welford's algorithm).
class RunningStat {
 public:
  void add(double x) noexcept;

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const noexcept { return n_ > 1 ? m2_ / double(n_ - 1) : 0.0; }
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

  /// Merges another accumulator into this one (parallel-friendly).
  void merge(const RunningStat& other) noexcept;

  void reset() noexcept { *this = RunningStat{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exponentially weighted moving average of an event rate. Feed it event
/// timestamps; it reports a smoothed events-per-tick rate. Used by the
/// victim-side DDoS detector.
class EwmaRate {
 public:
  /// `half_life` is the time constant in ticks over which past traffic
  /// loses half its weight.
  explicit EwmaRate(double half_life) noexcept;

  /// Records `weight` events at time `now` (ticks).
  void observe(std::uint64_t now, double weight = 1.0) noexcept;

  /// Smoothed rate (events per tick) as of time `now`.
  double rate(std::uint64_t now) const noexcept;

 private:
  double decay_per_tick_;  // ln(2)/half_life
  double value_ = 0.0;     // rate estimate at last_
  std::uint64_t last_ = 0;
  bool seen_ = false;
};

}  // namespace ddpm::netsim
