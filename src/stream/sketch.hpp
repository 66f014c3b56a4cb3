// Count-min sketch with conservative update — a standalone bounded-memory
// frequency primitive. No analyzer or detector in this library keeps one;
// its tests, bench_kernel and perfbench exercise it on its own.
//
// Geometry: `depth` rows of `width` 64-bit counters, one independent hash
// per row. The classic guarantees hold (Cormode & Muthukrishnan):
//
//   estimate(k) >= true count(k)                                 (always)
//   estimate(k) <= true count(k) + eps * N   with prob >= 1 - delta
//   eps = e / width,  delta = e^-depth,  N = total stream weight
//
// Conservative update (Estan & Varghese) only raises the rows that are
// below estimate+w, which tightens the overestimate substantially on
// skewed streams while preserving the bounds; it makes updates
// ORDER-DEPENDENT, so a sharded user must query a key on the shard that
// performed its updates.
//
// The update path is DDPM_HOT: no allocation, no virtual dispatch, no
// locks, no throw/IO, and no hardware division — row/column mapping uses
// a multiply-shift range reduction instead of `% width`. tests pin the
// error bounds differentially against exact counters on 100k-source
// streams; bench_kernel ratchets `sketch_update` throughput.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "core/hot_path.hpp"

namespace ddpm::stream {

/// SplitMix64-style 64-bit finalizer used by every sketch in this library
/// (stateless, allocation-free, division-free).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51'afd7'ed55'8ccdULL;
  x ^= x >> 33;
  x *= 0xc4ce'b9fe'1a85'ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Largest size a sketch may round up to a power of two: past 2^31 the
/// next power of two does not fit 32 bits.
inline constexpr std::uint32_t kMaxPow2 = std::uint32_t(1) << 31;

/// Smallest power of two >= v, for 0 < v <= kMaxPow2 (the sketch
/// constructors DDPM_CHECK that range before they call this).
constexpr std::uint32_t next_pow2(std::uint32_t v) noexcept {
  return std::bit_ceil(v);
}

/// Maps a 64-bit hash onto [0, range) without division: take the high 32
/// hash bits and multiply-shift them into the range (Lemire reduction).
constexpr std::uint32_t range_reduce(std::uint64_t hash,
                                     std::uint32_t range) noexcept {
  const auto h32 = std::uint32_t(hash >> 32);
  return std::uint32_t((std::uint64_t(h32) * std::uint64_t(range)) >> 32);
}

class CountMinSketch {
 public:
  static constexpr std::uint32_t kMaxDepth = 8;

  /// `width` counters per row, `depth` rows (clamped to kMaxDepth). Each
  /// row's hash is seeded from `seed`.
  CountMinSketch(std::uint32_t width, std::uint32_t depth, std::uint64_t seed,
                 bool conservative = true);

  /// Adds `w` to `key` and returns the post-update point estimate.
  DDPM_HOT std::uint64_t update(std::uint32_t key,
                                std::uint64_t w = 1) noexcept;

  /// Point estimate (min over rows); an upper bound on the true count.
  DDPM_HOT std::uint64_t estimate(std::uint32_t key) const noexcept;

  /// Total stream weight N (sum of update weights).
  std::uint64_t items() const noexcept { return items_; }

  std::uint32_t width() const noexcept { return width_; }
  std::uint32_t depth() const noexcept { return depth_; }
  bool conservative() const noexcept { return conservative_; }

  /// Error-bound parameters for this geometry.
  double epsilon() const noexcept;  // e / width
  double delta() const noexcept;    // e^-depth

  /// Counter storage footprint (the 4 MiB budget is checked against this).
  std::size_t memory_bytes() const noexcept {
    return counts_.size() * sizeof(std::uint64_t) +
           seeds_.size() * sizeof(std::uint64_t);
  }

  void clear() noexcept;

 private:
  std::uint32_t width_;
  std::uint32_t depth_;
  bool conservative_;
  std::uint64_t items_ = 0;
  std::vector<std::uint64_t> seeds_;   // one per row
  std::vector<std::uint64_t> counts_;  // depth_ rows of width_ counters
};

}  // namespace ddpm::stream
