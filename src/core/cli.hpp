// Declarative command-line parser shared by the example and bench programs.
//
// Each flag is declared once — name, target variable, value placeholder,
// help line and, for numbers, the accepted range — and both parsing and the
// --help text come from that declaration; --help shows the targets' values
// at declaration time as the defaults. Targets are held by reference and
// must outlive parse().
//
//   core::Cli cli("sweep — grid experiments");
//   cli.number("--seeds", spec.seeds, "N", "replications per cell", 1);
//   if (!cli.parse(argc, argv, std::cout)) return 0;  // --help was printed
#pragma once

#include <functional>
#include <iosfwd>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/parse_number.hpp"

namespace ddpm::core {

class Cli {
 public:
  explicit Cli(std::string summary) : summary_(std::move(summary)) {}

  void toggle(std::string name, bool& target, std::string help) {
    declare(name, "", help, "", [&target](std::string_view) { target = true; });
  }

  void text(std::string name, std::string& target, std::string meta,
            std::string help) {
    declare(name, meta, help, target,
            [&target](std::string_view value) { target = value; });
  }

  /// Comma-separated lists; empty items are dropped.
  void list(std::string name, std::vector<std::string>& target,
            std::string meta, std::string help);
  void list(std::string name, std::vector<double>& target, std::string meta,
            std::string help, double min);

  /// A number in [min, max].
  template <typename T>
  void number(std::string name, T& target, std::string meta, std::string help,
              std::type_identity_t<T> min = std::numeric_limits<T>::lowest(),
              std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
    declare(name, meta, help, format_number(target),
            [&target, name, min, max](std::string_view value) {
              target = checked(name, value, min, max);
            });
  }

  /// A number >= min with no default: `target` stays empty unless given.
  template <typename T>
  void number(std::string name, std::optional<T>& target, std::string meta,
              std::string help,
              std::type_identity_t<T> min = std::numeric_limits<T>::lowest()) {
    declare(name, meta, help, "", [&target, name, min](std::string_view v) {
      target = checked(name, v, min, std::numeric_limits<T>::max());
    });
  }

  /// One of a fixed set of names, each mapped to a value of `target`.
  template <typename E>
  void choice(std::string name, E& target,
              std::vector<std::pair<std::string, E>> names, std::string meta,
              std::string help) {
    std::string all, shown;
    for (const auto& [label, value] : names) {
      if (!all.empty()) all += '|';
      all += label;
      if (value == target) shown = label;
    }
    declare(name, meta, help + ": " + all, shown,
            [&target, names, name, all](std::string_view text) {
              for (const auto& [label, value] : names) {
                if (label != text) continue;
                target = value;
                return;
              }
              throw bad_value(name, text, "one of " + all);
            });
  }

  /// Applies argv to the declared targets. Returns false after writing the
  /// help text to `help_out` for --help or -h. Throws std::invalid_argument
  /// naming the flag and the value on an unknown flag, a missing value or a
  /// value the declaration rejects.
  bool parse(int argc, const char* const* argv, std::ostream& help_out);
  std::string help() const;

 private:
  using Setter = std::function<void(std::string_view)>;
  struct Flag {
    std::string name, meta, help;  // help ends with the shown default
    Setter set;
  };

  void declare(std::string name, std::string meta, std::string help,
               const std::string& shown_default, Setter set);
  static std::invalid_argument bad_value(const std::string& flag,
                                         std::string_view value,
                                         const std::string& expected);

  template <typename T>
  static T checked(const std::string& flag, std::string_view text, T min,
                   T max) {
    T value{};
    if (parse_number(text, value) && value >= min && value <= max) {
      return value;
    }
    std::string expected = std::is_integral_v<T> ? "an integer" : "a number";
    if (max == std::numeric_limits<T>::max()) {
      expected += " >= " + format_number(min);
    } else {
      expected +=
          " in [" + format_number(min) + ", " + format_number(max) + "]";
    }
    throw bad_value(flag, text, expected);
  }

  std::string summary_;
  std::vector<Flag> flags_;
};

}  // namespace ddpm::core
