#include "telemetry/registry.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "core/check.hpp"
#include "core/hot_path.hpp"

namespace ddpm::telemetry {

namespace {

using detail::Series;
using detail::SeriesKind;

DDPM_COLD std::string histogram_shape(std::size_t bins) {
  return "[0, " + std::to_string(bins) + ") in unit bins";
}

/// "counter", "histogram over [0, 8) in unit bins", "counter family over
/// 4 switches and ports -x +x", ...
DDPM_COLD std::string shape(SeriesKind kind, bool family, std::uint32_t rows,
                            const std::vector<std::string>& ports,
                            std::size_t bins) {
  std::string shape = kind == SeriesKind::kCounter ? "counter"
                      : kind == SeriesKind::kGauge ? "gauge"
                                                   : "histogram";
  if (family) {
    shape += " family over " + std::to_string(rows) + " switches";
    if (kind == SeriesKind::kHistogram) shape += ", " + histogram_shape(bins);
  } else if (kind == SeriesKind::kHistogram) {
    shape += " over " + histogram_shape(bins);
  }
  if (!ports.empty()) {
    shape += " and ports";
    for (const std::string& port : ports) {
      shape += ' ';
      shape += port;
    }
  }
  return shape;
}

constexpr std::string_view kSwitchLabel = "{switch=";

/// A record's name in messages: a scalar's key, a family's name.
std::string_view shown_name(const Series& s) {
  const std::string_view head = s.head;
  return s.family ? head.substr(0, head.size() - kSwitchLabel.size()) : head;
}

/// The series `s` exports: a counter row holds one per port label.
std::size_t exported(const Series& s) {
  return s.bound_rows * (s.kind == SeriesKind::kCounter ? s.width : 1);
}

/// One snapshot entry from a HistogramHandle's cells.
MetricsSnapshot::HistogramEntry histogram_entry(std::string key,
                                                const std::uint64_t* cells,
                                                std::size_t bins) {
  MetricsSnapshot::HistogramEntry e;
  e.key = std::move(key);
  e.hi = double(bins);
  e.overflow = cells[bins];
  e.bins.assign(cells, cells + bins);
  e.total = e.overflow;
  for (const std::uint64_t n : e.bins) e.total += n;
  e.sum = double(cells[bins + 1]);
  return e;
}

/// Appends row `row` of `s` as the one series `key` (a row of port
/// counters is emit_family's).
void emit_row(const Series& s, std::string key, const std::uint64_t* row,
              MetricsSnapshot& snap) {
  switch (s.kind) {
    case SeriesKind::kCounter:
      snap.counters.push_back({std::move(key), row[0]});
      break;
    case SeriesKind::kGauge:
      snap.gauges.push_back({std::move(key), std::bit_cast<double>(row[0]),
                             std::bit_cast<double>(row[1])});
      break;
    case SeriesKind::kHistogram:
      snap.histograms.push_back(histogram_entry(std::move(key), row, s.bins));
      break;
  }
}

/// Calls `emit(id, digits)` for each id in [0, n) in the order of the
/// strings `digits + end`. `,` sorts before every digit and `}` after, so
/// an id before `,` comes ahead of its decimal extensions (a pre-order
/// walk of the decimal digit trie) and an id before `}` after them (a
/// post-order walk).
template <typename Emit>
void walk_ids(std::uint64_t id, std::uint64_t n, bool pre, std::string& digits,
              Emit& emit) {
  if (pre) emit(id, digits);
  for (unsigned d = 0; id != 0 && d < 10; ++d) {
    const std::uint64_t child = id * 10 + d;
    if (child >= n) break;
    digits.push_back(char('0' + d));
    walk_ids(child, n, pre, digits, emit);
    digits.pop_back();
  }
  if (!pre) emit(id, digits);
}

template <typename Emit>
void for_each_id_in_key_order(std::uint32_t n, char end, Emit emit) {
  std::string digits;
  for (unsigned d = 0; d < 10 && d < n; ++d) {
    digits.assign(1, char('0' + d));
    walk_ids(d, n, end == ',', digits, emit);
  }
}

/// Appends the bound rows of family `f` in key order.
void emit_family(const Series& f, MetricsSnapshot& snap) {
  std::string key = f.head;
  const std::size_t head = key.size();
  const char end = f.ports.empty() ? '}' : ',';
  for_each_id_in_key_order(f.rows, end, [&](std::uint64_t id,
                                            const std::string& digits) {
    if (!f.bound[id]) return;
    const std::uint64_t* row = f.cells.data() + id * f.width;
    key.resize(head);
    key += digits;
    if (f.ports.empty()) {
      key += '}';
      emit_row(f, key, row, snap);
      return;
    }
    key += ",port=";
    const std::size_t tail = key.size();
    for (const std::size_t p : f.port_order) {
      key.resize(tail);
      key += f.ports[p];
      key += '}';
      snap.counters.push_back({key, row[p]});
    }
  });
}

template <typename Entry>
bool strictly_sorted(const std::vector<Entry>& entries) {
  return std::adjacent_find(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return !(a.key < b.key);
                            }) == entries.end();
}

}  // namespace

std::uint64_t* detail::Series::bind(std::uint32_t sw) {
  DDPM_CHECK(sw < rows, "a switch id past the family's switch count");
  if (!bound[sw]) {
    bound[sw] = true;
    ++bound_rows;
  }
  return cells.data() + std::size_t(sw) * width;
}

std::string Registry::make_key(std::string_view name, std::string_view labels) {
  std::string key(name);
  if (!labels.empty()) {
    key += '{';
    key += labels;
    key += '}';
  }
  return key;
}

Series* Registry::series(std::string_view head, SeriesKind kind, bool family,
                         std::uint32_t rows,
                         const std::vector<std::string>& ports,
                         std::size_t bins) {
  if (const auto it = by_head_.find(head); it != by_head_.end()) {
    Series& s = *it->second;
    DDPM_CHECK_MSG(s.kind == kind && s.family == family && s.rows == rows &&
                       s.ports == ports && s.bins == bins,
                   "'" + std::string(shown_name(s)) + "' registered as a " +
                       shape(s.kind, s.family, s.rows, s.ports, s.bins) +
                       ", again as a " +
                       shape(kind, family, rows, ports, bins));
    return &s;
  }
  Series& s = series_.emplace_back();
  s.kind = kind;
  s.family = family;
  s.head = head;
  s.rows = rows;
  s.ports = ports;
  s.bins = bins;
  s.width = kind == SeriesKind::kHistogram ? bins + 2
            : kind == SeriesKind::kGauge
                ? 2
                : std::max<std::size_t>(ports.size(), 1);
  s.cells.assign(std::size_t(rows) * s.width, 0);
  s.bound.assign(rows, !family);  // a scalar's row is bound from the start
  s.bound_rows = family ? 0 : 1;
  // Ports in the order of their keys' tails (`d10}` before `d1}`).
  s.port_order.resize(ports.size());
  std::iota(s.port_order.begin(), s.port_order.end(), std::size_t{0});
  std::sort(s.port_order.begin(), s.port_order.end(),
            [&](std::size_t a, std::size_t b) {
              return ports[a] + '}' < ports[b] + '}';
            });
  by_head_.emplace(s.head, &s);
  return &s;
}

// Registration runs during model construction, never in steady state; a
// hot probe's `tracer_->counter()` only shares the name of `counter()`.
DDPM_COLD std::uint64_t* Registry::scalar(std::string_view name,
                                          std::string_view labels,
                                          SeriesKind kind, std::size_t bins) {
  const std::string key = make_key(name, labels);
  return series(key, kind, false, 1, {}, bins)->cells.data();
}

Counter Registry::counter(std::string_view name, std::string_view labels) {
  if (!enabled_) return Counter{};
  return Counter(scalar(name, labels, SeriesKind::kCounter, 0));
}

Gauge Registry::gauge(std::string_view name, std::string_view labels) {
  if (!enabled_) return Gauge{};
  return Gauge(scalar(name, labels, SeriesKind::kGauge, 0));
}

HistogramHandle Registry::histogram(std::string_view name,
                                    std::string_view labels,
                                    std::size_t bins) {
  DDPM_CHECK(bins > 0, "a histogram needs at least one bin");
  if (!enabled_) return HistogramHandle{};
  return HistogramHandle(scalar(name, labels, SeriesKind::kHistogram, bins),
                         bins);
}

CounterFamily Registry::counter_family(std::string_view name,
                                       std::uint32_t switches,
                                       const std::vector<std::string>& ports) {
  if (!enabled_) return CounterFamily{};
  head_.assign(name).append(kSwitchLabel);
  return CounterFamily(
      series(head_, SeriesKind::kCounter, true, switches, ports, 0));
}

HistogramFamily Registry::histogram_family(std::string_view name,
                                           std::uint32_t switches,
                                           std::size_t bins) {
  DDPM_CHECK(bins > 0, "a histogram needs at least one bin");
  if (!enabled_) return HistogramFamily{};
  head_.assign(name).append(kSwitchLabel);
  return HistogramFamily(
      series(head_, SeriesKind::kHistogram, true, switches, {}, bins));
}

std::size_t Registry::size() const {
  std::size_t n = 0;
  for (const Series& s : series_) n += exported(s);
  return n;
}

MetricsSnapshot Registry::snapshot() const {
  std::vector<const Series*> by_head;
  by_head.reserve(series_.size());
  std::size_t rows[3] = {};
  for (const Series& s : series_) {
    by_head.push_back(&s);
    rows[std::size_t(s.kind)] += exported(s);
  }
  std::sort(by_head.begin(), by_head.end(),
            [](const Series* a, const Series* b) { return a->head < b->head; });
  MetricsSnapshot snap;
  snap.counters.reserve(rows[std::size_t(SeriesKind::kCounter)]);
  snap.gauges.reserve(rows[std::size_t(SeriesKind::kGauge)]);
  snap.histograms.reserve(rows[std::size_t(SeriesKind::kHistogram)]);
  // A scalar's key is its head, so the scalars come out as one sorted run
  // per kind. The families follow, each already in key order and in the
  // order of their heads; one linear merge per kind places them.
  for (const Series* s : by_head) {
    if (!s->family) emit_row(*s, s->head, s->cells.data(), snap);
  }
  const auto scalar_counters = std::ptrdiff_t(snap.counters.size());
  const auto scalar_histograms = std::ptrdiff_t(snap.histograms.size());
  for (const Series* s : by_head) {
    if (s->family) emit_family(*s, snap);
  }
  const auto by_key = [](const auto& a, const auto& b) { return a.key < b.key; };
  std::inplace_merge(snap.counters.begin(),
                     snap.counters.begin() + scalar_counters,
                     snap.counters.end(), by_key);
  std::inplace_merge(snap.histograms.begin(),
                     snap.histograms.begin() + scalar_histograms,
                     snap.histograms.end(), by_key);
  DDPM_DCHECK(strictly_sorted(snap.counters) && strictly_sorted(snap.gauges) &&
                  strictly_sorted(snap.histograms),
              "a snapshot's keys are strictly sorted");
  return snap;
}

void Registry::reset() {
  for (Series& s : series_) {
    std::fill(s.cells.begin(), s.cells.end(), std::uint64_t{0});
  }
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view key) const noexcept {
  const auto it = std::lower_bound(
      counters.begin(), counters.end(), key,
      [](const CounterEntry& e, std::string_view k) { return e.key < k; });
  return (it != counters.end() && it->key == key) ? it->value : 0;
}

std::uint64_t MetricsSnapshot::counter_sum_prefix(
    std::string_view prefix) const noexcept {
  std::uint64_t sum = 0;
  for (const CounterEntry& e : counters) {
    if (e.key.size() >= prefix.size() &&
        std::string_view(e.key).substr(0, prefix.size()) == prefix) {
      sum += e.value;
    }
  }
  return sum;
}

namespace {

/// Merges `from` into the key-sorted vector `into`: matching keys fold via
/// `fold`, new keys land in sorted position. Replication merges dominate
/// (summarize folds N identical-shaped snapshots), so the aligned cases are
/// fast paths: an empty accumulator adopts `from` wholesale, and identical
/// key sets fold element-wise with no allocation. Disjoint shapes fall back
/// to a single linear two-pointer merge — never per-entry vector::insert.
template <typename Entry, typename Fold>
void merge_sorted(std::vector<Entry>& into, const std::vector<Entry>& from,
                  Fold fold) {
  if (from.empty()) return;
  if (into.empty()) {
    into = from;
    return;
  }
  if (into.size() == from.size()) {
    bool aligned = true;
    for (std::size_t i = 0; i < into.size(); ++i) {
      if (into[i].key != from[i].key) {
        aligned = false;
        break;
      }
    }
    if (aligned) {
      for (std::size_t i = 0; i < into.size(); ++i) fold(into[i], from[i]);
      return;
    }
  }
  std::vector<Entry> merged;
  merged.reserve(into.size() + from.size());
  auto a = into.begin();
  auto b = from.begin();
  while (a != into.end() && b != from.end()) {
    if (a->key < b->key) {
      merged.push_back(std::move(*a++));
    } else if (b->key < a->key) {
      merged.push_back(*b++);
    } else {
      fold(*a, *b);
      merged.push_back(std::move(*a++));
      ++b;
    }
  }
  for (; a != into.end(); ++a) merged.push_back(std::move(*a));
  for (; b != from.end(); ++b) merged.push_back(*b);
  into = std::move(merged);
}

/// Doubles render with max_digits10 round-trip precision so a snapshot's
/// JSON/CSV is a faithful fingerprint for the determinism suite.
void write_double(std::ostream& os, double v) {
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << v;
  os << tmp.str();
}

void json_escape(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  merge_sorted(counters, other.counters,
               [](CounterEntry& a, const CounterEntry& b) { a.value += b.value; });
  merge_sorted(gauges, other.gauges, [](GaugeEntry& a, const GaugeEntry& b) {
    a.value += b.value;
    a.peak = std::max(a.peak, b.peak);
  });
  merge_sorted(histograms, other.histograms,
               [](HistogramEntry& a, const HistogramEntry& b) {
                 DDPM_CHECK_MSG(a.bins.size() == b.bins.size(),
                                "histogram '" + a.key + "' over " +
                                    histogram_shape(a.bins.size()) +
                                    " merged with one over " +
                                    histogram_shape(b.bins.size()));
                 a.underflow += b.underflow;
                 a.overflow += b.overflow;
                 a.total += b.total;
                 a.sum += b.sum;
                 for (std::size_t i = 0; i < a.bins.size(); ++i) {
                   a.bins[i] += b.bins[i];
                 }
               });
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? "," : "") << "\n    \"";
    json_escape(os, counters[i].key);
    os << "\": " << counters[i].value;
  }
  os << (counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? "," : "") << "\n    \"";
    json_escape(os, gauges[i].key);
    os << "\": {\"value\": ";
    write_double(os, gauges[i].value);
    os << ", \"peak\": ";
    write_double(os, gauges[i].peak);
    os << "}";
  }
  os << (gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramEntry& h = histograms[i];
    os << (i ? "," : "") << "\n    \"";
    json_escape(os, h.key);
    os << "\": {\"lo\": ";
    write_double(os, h.lo);
    os << ", \"hi\": ";
    write_double(os, h.hi);
    os << ", \"underflow\": " << h.underflow << ", \"overflow\": "
       << h.overflow << ", \"total\": " << h.total << ", \"sum\": ";
    write_double(os, h.sum);
    os << ", \"bins\": [";
    for (std::size_t b = 0; b < h.bins.size(); ++b) {
      os << (b ? "," : "") << h.bins[b];
    }
    os << "]}";
  }
  os << (histograms.empty() ? "" : "\n  ") << "}\n}";
  return os.str();
}

std::string MetricsSnapshot::to_csv() const {
  std::ostringstream os;
  os << "kind,key,value,peak,lo,hi,underflow,overflow,bins\n";
  for (const CounterEntry& e : counters) {
    os << "counter," << e.key << ',' << e.value << ",,,,,,\n";
  }
  for (const GaugeEntry& e : gauges) {
    os << "gauge," << e.key << ',';
    write_double(os, e.value);
    os << ',';
    write_double(os, e.peak);
    os << ",,,,,\n";
  }
  for (const HistogramEntry& h : histograms) {
    os << "histogram," << h.key << ',';
    write_double(os, h.sum);
    os << ",,";
    write_double(os, h.lo);
    os << ',';
    write_double(os, h.hi);
    os << ',' << h.underflow << ',' << h.overflow << ',';
    for (std::size_t b = 0; b < h.bins.size(); ++b) {
      os << (b ? "|" : "") << h.bins[b];
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace ddpm::telemetry
