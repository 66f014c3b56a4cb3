#include "netsim/stats.hpp"

#include <algorithm>
#include <cmath>

namespace ddpm::netsim {

void RunningStat::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  // Welford update: floating-point divide by the running count is the
  // algorithm's definition, not an integer divide.
  mean_ += delta / double(n_);  // ddpm-analyze: allow(hot-no-div)
  m2_ += delta * (x - mean_);
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStat::merge(const RunningStat& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = double(n_ + other.n_);
  m2_ += other.m2_ + delta * delta * double(n_) * double(other.n_) / n;
  mean_ = (mean_ * double(n_) + other.mean_ * double(other.n_)) / n;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

EwmaRate::EwmaRate(double half_life) noexcept
    : decay_per_tick_(std::log(2.0) / half_life) {}

void EwmaRate::observe(std::uint64_t now, double weight) noexcept {
  if (!seen_) {
    seen_ = true;
    last_ = now;
    value_ = weight * decay_per_tick_;
    return;
  }
  // Out-of-order timestamps (now < last_) are treated as zero elapsed time;
  // the unsigned subtraction would otherwise wrap to ~2^64 ticks and decay
  // the estimate to zero in one step.
  const double dt = now >= last_ ? double(now - last_) : 0.0;
  value_ = value_ * std::exp(-decay_per_tick_ * dt) + weight * decay_per_tick_;
  if (now > last_) last_ = now;
}

double EwmaRate::rate(std::uint64_t now) const noexcept {
  if (!seen_) return 0.0;
  const double dt = now >= last_ ? double(now - last_) : 0.0;
  return value_ * std::exp(-decay_per_tick_ * dt);
}

}  // namespace ddpm::netsim
