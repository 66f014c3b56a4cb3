// Bit-level accessors for the 16-bit Marking Field.
//
// Every marking scheme in the paper packs structured data into the IPv4
// identification field. These helpers implement the packing: unsigned and
// signed (two's-complement) sub-fields at arbitrary bit offsets, with
// range checking so codec bugs fail loudly in tests instead of silently
// corrupting marks.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "core/check.hpp"

namespace ddpm::pkt {

/// A [offset, offset+width) slice of the 16-bit field. Bit 0 is the LSB.
struct FieldSlice {
  unsigned offset;
  unsigned width;

  /// True iff the slice denotes a nonempty bit range inside the 16-bit field.
  constexpr bool valid() const noexcept {
    return width >= 1 && width <= 16 && offset < 16 && offset + width <= 16;
  }

  constexpr std::uint16_t mask() const noexcept {
    DDPM_DCHECK(valid(), "malformed field slice");
    return static_cast<std::uint16_t>(((1u << width) - 1u) << offset);
  }
};

/// Reads an unsigned sub-field.
constexpr std::uint16_t read_unsigned(std::uint16_t field, FieldSlice s) noexcept {
  DDPM_DCHECK(s.valid(), "malformed field slice");
  return static_cast<std::uint16_t>((field >> s.offset) & ((1u << s.width) - 1u));
}

/// Writes an unsigned sub-field. Throws std::range_error if the value does
/// not fit in `s.width` bits.
inline std::uint16_t write_unsigned(std::uint16_t field, FieldSlice s,
                                    std::uint16_t value) {
  DDPM_DCHECK(s.valid(), "malformed field slice");
  if (value >= (1u << s.width)) {
    throw std::range_error("marking field: unsigned value out of range");
  }
  return static_cast<std::uint16_t>((field & ~s.mask()) |
                                    (std::uint16_t(value << s.offset) & s.mask()));
}

/// Reads a signed (two's-complement) sub-field into a plain int.
constexpr int read_signed(std::uint16_t field, FieldSlice s) noexcept {
  DDPM_DCHECK(s.valid(), "malformed field slice");
  // Shift the slice's top bit to bit 15, then shift back arithmetically:
  // the sign extends without a branch.
  const auto top = std::int16_t(std::uint16_t(field << (16 - s.offset - s.width)));
  return top >> (16 - s.width);
}

/// Writes a signed sub-field. Throws std::range_error if `value` is outside
/// [-2^(w-1), 2^(w-1) - 1].
inline std::uint16_t write_signed(std::uint16_t field, FieldSlice s, int value) {
  DDPM_DCHECK(s.valid(), "malformed field slice");
  const int lo = -int(1u << (s.width - 1));
  const int hi = int(1u << (s.width - 1)) - 1;
  if (value < lo || value > hi) {
    throw std::range_error("marking field: signed value out of range");
  }
  const auto raw = static_cast<std::uint16_t>(value & int((1u << s.width) - 1u));
  return static_cast<std::uint16_t>((field & ~s.mask()) |
                                    (std::uint16_t(raw << s.offset) & s.mask()));
}

/// Reads a single bit.
constexpr bool read_bit(std::uint16_t field, unsigned bit) noexcept {
  DDPM_DCHECK(bit < 16, "bit index out of range");
  return (field >> bit) & 1u;
}

/// Writes a single bit.
constexpr std::uint16_t write_bit(std::uint16_t field, unsigned bit,
                                  bool value) noexcept {
  DDPM_DCHECK(bit < 16, "bit index out of range");
  const auto mask = std::uint16_t(1u << bit);
  return value ? std::uint16_t(field | mask) : std::uint16_t(field & ~mask);
}

}  // namespace ddpm::pkt
