// Shared console-table formatting for the benchmark binaries. Each bench
// regenerates one paper artifact (table/figure/experiment) and prints it in
// a shape comparable with the paper; EXPERIMENTS.md records the comparison.
#pragma once

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace ddpm::bench {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    widths_.reserve(headers_.size());
    for (const auto& h : headers_) widths_.push_back(h.size());
    // Grow-once for typical table sizes; row() never reallocates rows_ for
    // tables up to 64 rows (the largest the benches print).
    rows_.reserve(64);
  }

  template <typename... Cells>
  void row(Cells&&... cells) {
    std::vector<std::string> r;
    (r.push_back(to_cell(std::forward<Cells>(cells))), ...);
    for (std::size_t i = 0; i < r.size() && i < widths_.size(); ++i) {
      widths_[i] = std::max(widths_[i], r[i].size());
    }
    rows_.push_back(std::move(r));
  }

  void print(std::ostream& os = std::cout) const {
    print_row(os, headers_);
    std::string rule;
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      rule += std::string(widths_[i] + 2, '-');
      if (i + 1 < headers_.size()) rule += '+';
    }
    os << rule << '\n';
    for (const auto& r : rows_) print_row(os, r);
  }

 private:
  template <typename T>
  static std::string to_cell(T&& value) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(std::forward<T>(value));
    } else {
      std::ostringstream os;
      os << std::setprecision(4) << value;
      return os.str();
    }
  }

  void print_row(std::ostream& os, const std::vector<std::string>& r) const {
    for (std::size_t i = 0; i < r.size(); ++i) {
      os << ' ' << std::setw(int(widths_[i])) << std::left << r[i] << ' ';
      if (i + 1 < r.size()) os << '|';
    }
    os << '\n';
  }

  std::vector<std::string> headers_;
  std::vector<std::size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

inline void banner(const std::string& title) {
  std::cout << '\n' << std::string(72, '=') << '\n'
            << title << '\n'
            << std::string(72, '=') << '\n';
}

}  // namespace ddpm::bench
