// Sliding-window entropy estimator over hashed buckets.
//
// Exact sliding-window source entropy needs a per-source count map, whose
// size a spoofing attacker controls. This sketch folds sources into
// `buckets` hashed counters and maintains the window incrementally:
//
//   H_bucket = log2(n) - (1/n) * sum_b c_b * log2(c_b)
//
// Hash collisions only MERGE sources, so H_bucket <= H_true <=
// log2(buckets); with buckets >> distinct-sources-in-window the gap is
// negligible, and the detection signal (entropy collapsing toward 0 under
// a single-victim flood, or saturating toward log2(buckets) under random
// spoofing) survives collisions by construction.
//
// observe_key() is DDPM_HOT: ring-buffer eviction, two table lookups, and
// a log2 table delta — no allocation, no division (power-of-two masks;
// the one division lives in the cold entropy_bits() query).
#pragma once

#include <cstdint>
#include <vector>

#include "core/hot_path.hpp"

namespace ddpm::stream {

class SlidingEntropySketch {
 public:
  /// Window of the last `window` keys over `buckets` hashed counters
  /// (both rounded up to powers of two).
  SlidingEntropySketch(std::uint32_t window, std::uint32_t buckets,
                       std::uint64_t seed);

  /// Feeds one key, evicting the oldest once the window is full.
  DDPM_HOT void observe_key(std::uint32_t key) noexcept;

  /// Entropy (bits) of the current window's bucket distribution. Cold:
  /// one division. 0 when the window is empty.
  double entropy_bits() const noexcept;

  bool full() const noexcept { return filled_ == window_; }
  std::uint32_t window() const noexcept { return window_; }
  std::uint32_t buckets() const noexcept {
    return std::uint32_t(counts_.size());
  }

  std::size_t memory_bytes() const noexcept {
    return ring_.size() * sizeof(std::uint32_t) +
           counts_.size() * sizeof(std::uint32_t);
  }

  void clear() noexcept;

 private:
  DDPM_HOT double clog2c(std::uint32_t c) const noexcept;

  std::uint32_t window_;       // power of two
  std::uint32_t ring_mask_;    // window_ - 1
  std::uint32_t bucket_mask_;  // buckets - 1
  std::uint32_t head_ = 0;     // next ring slot to write
  std::uint32_t filled_ = 0;   // keys currently in the window
  std::uint64_t seed_;
  double clogc_sum_ = 0.0;          // sum over buckets of c * log2(c)
  std::vector<std::uint32_t> ring_;    // bucket index per windowed key
  std::vector<std::uint32_t> counts_;  // per-bucket occupancy
  std::vector<double> log2_table_;     // log2(c) for c in [0, window_]
};

}  // namespace ddpm::stream
