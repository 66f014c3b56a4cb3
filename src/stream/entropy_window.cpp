#include "stream/entropy_window.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"
#include "stream/sketch.hpp"

namespace ddpm::stream {

SlidingEntropySketch::SlidingEntropySketch(std::uint32_t window,
                                           std::uint32_t buckets,
                                           std::uint64_t seed)
    : seed_(seed) {
  DDPM_CHECK(window > 0, "SlidingEntropySketch: window must be positive");
  DDPM_CHECK(buckets > 0, "SlidingEntropySketch: buckets must be positive");
  DDPM_CHECK(window <= kMaxPow2, "SlidingEntropySketch: window above 2^31");
  DDPM_CHECK(buckets <= kMaxPow2, "SlidingEntropySketch: buckets above 2^31");
  window_ = next_pow2(window);
  ring_mask_ = window_ - 1;
  const std::uint32_t bucket_count = next_pow2(buckets);
  bucket_mask_ = bucket_count - 1;
  ring_.assign(window_, 0);
  counts_.assign(bucket_count, 0);
  // Hot updates fetch log2(c) from this table; std::log2 stays cold.
  log2_table_.resize(std::size_t(window_) + 1);
  log2_table_[0] = 0.0;  // by convention 0 * log2(0) = 0
  for (std::size_t c = 1; c < log2_table_.size(); ++c) {
    log2_table_[c] = std::log2(double(c));
  }
}

DDPM_HOT double SlidingEntropySketch::clog2c(std::uint32_t c) const noexcept {
  return double(c) * log2_table_[c];
}

DDPM_HOT void SlidingEntropySketch::observe_key(std::uint32_t key) noexcept {
  if (filled_ == window_) {
    // Evict the key falling out of the window from its bucket.
    const std::uint32_t old_bucket = ring_[head_];
    std::uint32_t& old_c = counts_[old_bucket];
    clogc_sum_ -= clog2c(old_c);
    --old_c;
    clogc_sum_ += clog2c(old_c);
  } else {
    ++filled_;
  }
  const auto bucket =
      std::uint32_t(mix64(seed_ ^ key)) & bucket_mask_;
  std::uint32_t& c = counts_[bucket];
  clogc_sum_ -= clog2c(c);
  ++c;
  clogc_sum_ += clog2c(c);
  ring_[head_] = bucket;
  head_ = (head_ + 1) & ring_mask_;
}

double SlidingEntropySketch::entropy_bits() const noexcept {
  if (filled_ == 0) return 0.0;
  const double n = double(filled_);
  const double h = std::log2(n) - clogc_sum_ / n;
  // Clamp the tiny negative residue float cancellation can leave behind.
  return h < 0.0 ? 0.0 : h;
}

void SlidingEntropySketch::clear() noexcept {
  std::fill(ring_.begin(), ring_.end(), 0);
  std::fill(counts_.begin(), counts_.end(), 0);
  head_ = 0;
  filled_ = 0;
  clogc_sum_ = 0.0;
}

}  // namespace ddpm::stream
