#include "spans.hpp"

#include <ostream>

namespace perfbench {

SpanRecorder::SpanRecorder(std::size_t record_cap) : record_cap_(record_cap) {
  records_.reserve(record_cap_ < 4096 ? record_cap_ : 4096);
}

int SpanRecorder::name_id(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const int id = int(names_.size());
  names_.push_back(name);
  aggregates_.emplace_back();
  ids_.emplace(name, id);
  return id;
}

void SpanRecorder::begin(int name) {
  std::int64_t record = -1;
  const std::int64_t start = now_ns();
  if (records_.size() < record_cap_) {
    record = std::int64_t(records_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().record;
    records_.push_back({name, parent, start, 0});
  }
  stack_.push_back({name, start, 0, record});
}

void SpanRecorder::end() {
  const std::int64_t stop = now_ns();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = stop - frame.start;
  Aggregate& agg = aggregates_[std::size_t(frame.name)];
  ++agg.calls;
  agg.total_ns += duration;
  agg.child_ns += frame.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (frame.record >= 0) records_[std::size_t(frame.record)].duration = duration;
  ++closed_;
}

SpanRecorder::Aggregate SpanRecorder::aggregate(const std::string& name) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) return {};
  return aggregates_[std::size_t(it->second)];
}

double SpanRecorder::per_call_ns(const std::string& name) {
  const Aggregate agg = aggregate(name);
  if (agg.calls == 0) return 0;
  if (empty_span_ns_ < 0) {
    const int id = name_id("perfbench.empty_span");
    const std::size_t kept = records_.size();
    for (int i = 0; i < 100'000; ++i) {
      begin(id);
      end();
    }
    records_.resize(kept);  // calibration spans stay out of the written trace
    const Aggregate empty = aggregate("perfbench.empty_span");
    empty_span_ns_ = double(empty.total_ns) / double(empty.calls);
  }
  return double(agg.total_ns) / double(agg.calls) - empty_span_ns_;
}

void SpanRecorder::write_chrome_trace(std::ostream& out) const {
  const std::int64_t origin = records_.empty() ? 0 : records_.front().start;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << names_[std::size_t(r.name)]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << double(r.start - origin) / 1e3 << ",\"dur\":" << double(r.duration) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
