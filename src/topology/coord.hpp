// Fixed-capacity coordinate vector for regular direct networks.
//
// A Coord holds one signed integer per dimension. The capacity (16) covers
// every topology in the paper, including the 16-cube hypercube of Table 3.
// Signed elements let the same type represent both node positions and the
// per-dimension displacement vectors DDPM accumulates.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>

#include "core/check.hpp"

namespace ddpm::topo {

class Coord {
 public:
  static constexpr std::size_t kMaxDims = 16;
  using value_type = std::int16_t;

  constexpr Coord() noexcept = default;

  /// Zero vector with `dims` dimensions.
  explicit constexpr Coord(std::size_t dims) : size_(check_dims(dims)) {}

  constexpr Coord(std::initializer_list<int> values)
      : size_(check_dims(values.size())) {
    std::size_t i = 0;
    for (int v : values) data_[i++] = static_cast<value_type>(v);
  }

  constexpr std::size_t size() const noexcept { return size_; }
  constexpr bool empty() const noexcept { return size_ == 0; }

  constexpr value_type operator[](std::size_t i) const noexcept {
    DDPM_DCHECK(i < size_, "Coord index out of range");
    return data_[i];
  }
  constexpr value_type& operator[](std::size_t i) noexcept {
    DDPM_DCHECK(i < size_, "Coord index out of range");
    return data_[i];
  }

  value_type at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("Coord::at");
    return data_[i];
  }

  constexpr bool operator==(const Coord& other) const noexcept {
    if (size_ != other.size_) return false;
    for (std::size_t i = 0; i < size_; ++i) {
      if (data_[i] != other.data_[i]) return false;
    }
    return true;
  }
  constexpr bool operator!=(const Coord& other) const noexcept {
    return !(*this == other);
  }

  /// Element-wise sum. Both operands must have the same dimensionality.
  Coord operator+(const Coord& other) const;
  /// Element-wise difference (this - other).
  Coord operator-(const Coord& other) const;
  /// Element-wise XOR, used by the hypercube variant of DDPM.
  Coord operator^(const Coord& other) const;

  /// Sum of absolute element values (L1 norm) — the minimal hop count in a
  /// mesh when applied to a displacement vector.
  int l1_norm() const noexcept;

  /// Number of nonzero elements — the minimal hop count in a hypercube when
  /// applied to a (0/1-valued) displacement vector.
  int nonzero_count() const noexcept;

  std::string to_string() const;

  /// FNV-1a over the active elements, for hashing.
  std::size_t hash() const noexcept;

 private:
  static constexpr std::size_t check_dims(std::size_t dims) {
    if (dims > kMaxDims) throw std::invalid_argument("Coord: too many dimensions");
    return dims;
  }

  std::array<value_type, kMaxDims> data_{};
  std::size_t size_ = 0;
};

struct CoordHash {
  std::size_t operator()(const Coord& c) const noexcept { return c.hash(); }
};

/// Shortest signed ring displacement from coordinate `a` to coordinate `b`
/// on a ring of size `k`, in (-k/2, k/2]; an even k with |delta| == k/2
/// reports +k/2 (ties go the positive way round). Both coordinates must
/// already be in [0, k).
///
/// This helper and ring_direction below — together with the
/// coordinate<->id math in CartesianTopology and Torus::ring_delta, which
/// delegates here — are the sanctioned home for modular arithmetic on
/// torus coordinates. Raw `%`/`/` on coordinates anywhere else is flagged
/// by the `torus-wrap` analyzer rule (docs/STATIC_ANALYSIS.md): ad-hoc
/// wraparound math is exactly the class of bug the ddpm_verify invariant
/// checker otherwise catches late.
constexpr int ring_shortest_delta(int a, int b, int k) noexcept {
  // The audited wrap helper is the one sanctioned home for this modulo;
  // hot callers use ring_direction or precomputed route/neighbor tables.
  const int delta = ((b - a) % k + k) % k;  // ddpm-analyze: allow(hot-no-div)
  return delta > k / 2 ? delta - k : delta;
}

/// Sign of ring_shortest_delta(a, b, k) — the way a minimal route steps
/// round the ring — without dividing: -1, 0 (a == b) or +1, with the same
/// tie rule (an even k with |delta| == k/2 goes positive). Both coordinates
/// must already be in [0, k). The per-hop form of the ring rule: the
/// routers reach it through CoordTable::direction, never the modulo above.
constexpr int ring_direction(int a, int b, int k) noexcept {
  if (a == b) return 0;
  const int delta = b > a ? b - a : b - a + k;  // forward distance, [1, k)
  return 2 * delta <= k ? +1 : -1;
}

}  // namespace ddpm::topo
