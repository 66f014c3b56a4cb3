// Shared vocabulary of the benchmark program: run options, the outcome a
// workload fills in (metrics, correctness checks, config echo, output
// digest), and small measurement helpers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shrinks every workload to a few seconds (the self-test's size).
  bool small = false;
  /// Perturbs each workload's primary expectation (wrong victim, wrong
  /// source, ...) so the self-test can show the checks bite.
  bool expect_wrong = false;
  /// Where a traced run writes its spans; empty = keep them in memory only.
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Outcome {
 public:
  /// Records one correctness check; a failed one is also described.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 20) failures_.push_back(what);
    }
  }
  /// Adds `other`'s checks to this outcome's and folds its digest in.
  void absorb(const Outcome& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const std::string& f : other.failures_) {
      if (failures_.size() < 20) failures_.push_back(f);
    }
    digest(other.digest_);
  }
  /// Records `n` checks of which `bad` failed, described once.
  void check_many(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    attempted_ += n;
    failed_ += bad;
    if (bad > 0 && failures_.size() < 20) {
      failures_.push_back(what + " (" + std::to_string(bad) + " of " +
                          std::to_string(n) + ")");
    }
  }

  /// A metric of the final JSON line; a second value for a name replaces
  /// the first (a workload's own measurement overrides a replayed one).
  void metric(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m = {name, value, unit};
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  /// A figure printed in the human-readable report only.
  void note(const std::string& name, double value, const std::string& unit) {
    notes_.push_back({name, value, unit});
  }
  /// One resolved configuration field, echoed before the result.
  void config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, value);
  }
  void config(const std::string& key, double value);

  /// Folds a deterministic output value into the run's digest (FNV-1a).
  void digest(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      digest_ ^= (value >> (8 * i)) & 0xffu;
      digest_ *= 0x100000001b3ULL;
    }
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  std::uint64_t digest_value() const noexcept { return digest_; }
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  const std::vector<Metric>& notes() const noexcept { return notes_; }
  const std::vector<std::string>& failures() const noexcept { return failures_; }
  const std::vector<std::pair<std::string, std::string>>& config_echo() const noexcept {
    return config_;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Per-scenario seeds of one run: scenario i of a run with seed s.
inline std::uint64_t scenario_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + i + 1;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  return x;
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

}  // namespace perfbench
