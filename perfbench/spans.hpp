// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened and closed around calls into the library's public
// interfaces from the benchmark's own code; nothing inside the library is
// instrumented. Every span feeds a per-name aggregate (calls, total time,
// time covered by child spans), so a layer's self time is its total minus
// its children. The first `record_cap` spans are also kept verbatim
// (name, parent, start, duration) and written as a Chrome trace_event file
// when the run ends; per-call spans past the cap only feed the aggregates,
// which keeps a million-call replay from growing memory without bound.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class SpanRecorder {
 public:
  struct Aggregate {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
    std::int64_t self_ns() const noexcept { return total_ns - child_ns; }
  };

  explicit SpanRecorder(std::size_t record_cap = 200'000);

  /// Interns a span name; the returned id is what begin() takes.
  int name_id(const std::string& name);

  void begin(int name);
  void end();

  /// Aggregate for `name`; all-zero if no such span closed.
  Aggregate aggregate(const std::string& name) const;

  /// Mean cost per call of the spans named `name`, less the recorder's own
  /// per-span cost (measured on empty spans), for spans around single calls.
  double per_call_ns(const std::string& name);

  std::size_t recorded() const noexcept { return records_.size(); }
  std::uint64_t closed() const noexcept { return closed_; }

  /// Writes the verbatim spans as Chrome trace_event JSON (complete "X"
  /// events, microsecond timestamps relative to the first span, with the
  /// parent span's index in args).
  void write_chrome_trace(std::ostream& out) const;

 private:
  struct Frame {
    int name;
    std::int64_t start;
    std::int64_t child_ns;
    std::int64_t record;  // index into records_, -1 when past the cap
  };
  struct Record {
    int name;
    std::int64_t parent;
    std::int64_t start;
    std::int64_t duration;
  };

  std::size_t record_cap_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> ids_;
  std::vector<Aggregate> aggregates_;
  std::vector<Frame> stack_;
  std::vector<Record> records_;
  std::uint64_t closed_ = 0;
  double empty_span_ns_ = -1;  // calibrated on first per_call_ns()
};

/// RAII span; a null recorder makes it a no-op, so untraced code paths can
/// share the instrumented ones.
class Span {
 public:
  Span(SpanRecorder* recorder, int name) : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->begin(name);
  }
  ~Span() {
    if (recorder_ != nullptr) recorder_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace perfbench
