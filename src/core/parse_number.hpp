// Strict text <-> number conversion: the one place the repository turns
// text into numbers (CLI flags, topology specs, flow CSV and delivery-trace
// fields). Header-only so layers below ddpm_core can use it without a link
// edge. std::from_chars / std::to_chars are locale-free and never allocate.
#pragma once

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <type_traits>

namespace ddpm::core {

/// Parses all of `text` as a T. Returns false, leaving `out` untouched,
/// unless the whole string is one number that fits T: no surrounding
/// whitespace, no leading '+', no sign at all for unsigned types, and no
/// NaN or infinity for floating-point types.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

/// Shortest text that parse_number reads back as exactly `value`, in %g
/// style for floating point (0.0003, not 3e-04).
template <typename T>
std::string format_number(T value) {
  char buf[32];  // fits any integer and the longest shortest-form double
  if constexpr (std::is_floating_point_v<T>) {
    return {buf, std::to_chars(buf, buf + 32, value,
                               std::chars_format::general).ptr};
  } else {
    return {buf, std::to_chars(buf, buf + 32, value).ptr};
  }
}

}  // namespace ddpm::core
