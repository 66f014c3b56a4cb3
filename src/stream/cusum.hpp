// CUSUM fold over sketch-derived rates (header-only).
//
// The one-sided cumulative-sum statistic S = max(0, S + x - mean - slack)
// ratchets across windows, so pulsing floods that duck under a static
// threshold between bursts still accumulate. The flow analyzer feeds it
// per-window top-destination deltas computed from the Space-Saving
// summary; CusumDetector and SketchCusumDetector (detectors.hpp) feed it
// per-window arrival and top-source counts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/hot_path.hpp"

namespace ddpm::stream {

class RateCusum {
 public:
  /// `mean` is the expected benign per-window value, `slack` the drift
  /// allowance (k), `threshold` the alarm level (h).
  RateCusum(double mean, double slack, double threshold) noexcept
      : mean_(mean), slack_(slack), threshold_(threshold) {}

  /// Folds one window's value; true when the statistic crosses threshold.
  DDPM_HOT bool fold(double value) noexcept {
    s_ += value - mean_ - slack_;
    if (s_ < 0.0) s_ = 0.0;
    return s_ > threshold_;
  }

  /// True when folding `value` now would cross threshold (fold's sum
  /// before its clamp at 0); the statistic is left alone. A window still
  /// open can prove an alarm before it closes.
  bool would_cross(double value) const noexcept {
    return s_ + (value - mean_ - slack_) > threshold_;
  }

  /// Folds `n` windows of value 0 and leaves exactly the statistic that n
  /// calls of fold(0.0) leave, in steps bounded by the binades the
  /// statistic falls through rather than by n. Needs mean + slack > 0.
  void fold_zeros(std::uint64_t n) noexcept {
    // Inside one binade [2^e, 2^(e+1)) doubles are multiples of one ulp,
    // so a fold that starts and lands inside it takes off s a drop that
    // depends only on the drift and, on a rounding tie, on whether s is an
    // even multiple. A tie rounds to an even multiple, so from the second
    // such fold on the drop is fixed: repeat it for every later fold that
    // still lands inside, in one subtraction.
    bool settled = false;  // the last fold started and landed in one binade
    while (n > 0 && s_ > 0.0) {
      const double before = s_;
      fold(0.0);
      --n;
      if (s_ == before) return;  // the drift rounds away: a fixed point
      const double bottom = std::ldexp(1.0, std::ilogb(before));
      const bool inside = s_ > bottom;
      if (inside && settled) {
        const double drop = before - s_;  // exact: one binade
        // The fold from s - j*drop lands inside while s - j*drop - drift
        // >= bottom; the 2 absorbs the rounding of this estimate.
        const double room =
            std::floor((s_ - bottom - (mean_ + slack_)) / drop) - 2.0;
        if (room > 0.0) {
          const std::uint64_t jump = std::min(n, std::uint64_t(room));
          s_ -= double(jump) * drop;
          n -= jump;
        }
      }
      settled = inside;
    }
  }

  double statistic() const noexcept { return s_; }
  double threshold() const noexcept { return threshold_; }

  /// Re-baselines the fold mid-stream (used after warm-up calibration).
  void rebase(double mean) noexcept { mean_ = mean; }

  void clear() noexcept { s_ = 0.0; }

 private:
  double mean_;
  double slack_;
  double threshold_;
  double s_ = 0.0;
};

}  // namespace ddpm::stream
