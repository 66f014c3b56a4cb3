#include "telemetry/registry.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "core/check.hpp"
#include "core/hot_path.hpp"

namespace ddpm::telemetry {

namespace {

DDPM_COLD std::string histogram_shape(std::size_t bins) {
  return "[0, " + std::to_string(bins) + ") in unit bins";
}

DDPM_COLD std::string family_shape(bool histogram, std::uint32_t switches,
                                   const std::vector<std::string>& ports,
                                   std::size_t bins) {
  std::string shape =
      histogram ? "histogram family over " : "counter family over ";
  shape += std::to_string(switches);
  shape += " switches";
  if (histogram) {
    shape += ", ";
    shape += histogram_shape(bins);
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

/// Appends the bound rows of `f` in key order.
void emit_family(const detail::SeriesFamily& f,
                 std::vector<MetricsSnapshot::CounterEntry>& counters,
                 std::vector<MetricsSnapshot::HistogramEntry>& histograms) {
  std::string key = f.head;
  const std::size_t head = key.size();
  const char end = f.ports.empty() ? '}' : ',';
  for_each_id_in_key_order(f.switches, end, [&](std::uint64_t id,
                                                const std::string& digits) {
    if (!f.bound[id]) return;
    const std::uint64_t* row = f.cells.data() + id * f.width;
    key.resize(head);
    key += digits;
    if (f.histogram) {
      key += '}';
      histograms.push_back(histogram_entry(key, row, f.bins));
    } else if (f.ports.empty()) {
      key += '}';
      counters.push_back({key, row[0]});
    } else {
      key += ",port=";
      const std::size_t tail = key.size();
      for (const std::size_t p : f.port_order) {
        key.resize(tail);
        key += f.ports[p];
        key += '}';
        counters.push_back({key, row[p]});
      }
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

std::uint64_t* detail::SeriesFamily::bind(std::uint32_t sw) {
  DDPM_CHECK(sw < switches, "a switch id past the family's switch count");
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

template <typename SlotT>
SlotT* Registry::find_or_create(
    std::deque<std::pair<std::string, SlotT>>& slots,
    std::unordered_map<std::string, SlotT*>& index, std::string key) {
  const auto it = index.find(key);
  if (it != index.end()) return it->second;
  slots.emplace_back(std::move(key), SlotT{});
  SlotT* slot = &slots.back().second;
  index.emplace(slots.back().first, slot);
  return slot;
}

Counter Registry::counter(std::string_view name, std::string_view labels) {
  if (!enabled_) return Counter{};
  return Counter(
      find_or_create(counters_, counter_index_, make_key(name, labels)));
}

Gauge Registry::gauge(std::string_view name, std::string_view labels) {
  if (!enabled_) return Gauge{};
  return Gauge(find_or_create(gauges_, gauge_index_, make_key(name, labels)));
}

HistogramHandle Registry::histogram(std::string_view name,
                                    std::string_view labels,
                                    std::size_t bins) {
  DDPM_CHECK(bins > 0, "a histogram needs at least one bin");
  if (!enabled_) return HistogramHandle{};
  auto* slot = find_or_create(histograms_, histogram_index_,
                              make_key(name, labels));
  if (slot->cells.empty()) {
    slot->bins = bins;
    slot->cells.assign(bins + 2, 0);
  }
  DDPM_CHECK_MSG(slot->bins == bins,
                 "histogram '" + make_key(name, labels) +
                     "' registered over " + histogram_shape(slot->bins) +
                     ", again over " + histogram_shape(bins));
  return HistogramHandle(slot->cells.data(), bins);
}

detail::SeriesFamily* Registry::family(std::string_view name, bool histogram,
                                       std::uint32_t switches,
                                       const std::vector<std::string>& ports,
                                       std::size_t bins) {
  // A network has a handful of families, and every switch looks each one
  // up: a scan by name beats a binary search over so few.
  for (detail::SeriesFamily* f : families_in_key_order_) {
    if (f->name != name) continue;
    DDPM_CHECK_MSG(f->histogram == histogram && f->switches == switches &&
                       f->ports == ports && f->bins == bins,
                   "'" + f->name + "' registered as a " +
                       family_shape(f->histogram, f->switches, f->ports,
                                    f->bins) +
                       ", again as a " +
                       family_shape(histogram, switches, ports, bins));
    return f;
  }
  detail::SeriesFamily& f = families_.emplace_back();
  f.name = name;
  f.head = f.name + "{switch=";
  f.histogram = histogram;
  f.switches = switches;
  f.ports = ports;
  f.bins = bins;
  f.width = histogram ? bins + 2 : std::max<std::size_t>(ports.size(), 1);
  f.cells.assign(std::size_t(switches) * f.width, 0);
  f.bound.assign(switches, false);
  // Key order, fixed here once: ports by their keys' tails (`d10}`
  // before `d1}`), families by their keys' heads (`link.tx_bytes{` before
  // `link.tx{`, as `_` sorts before `{`).
  std::vector<std::string> tails;
  for (const std::string& port : ports) tails.push_back(port + '}');
  f.port_order.resize(ports.size());
  std::iota(f.port_order.begin(), f.port_order.end(), std::size_t{0});
  std::sort(f.port_order.begin(), f.port_order.end(),
            [&](std::size_t a, std::size_t b) { return tails[a] < tails[b]; });
  const auto by_head = [](const detail::SeriesFamily* a,
                          const detail::SeriesFamily* b) {
    return a->head < b->head;
  };
  families_in_key_order_.insert(
      std::upper_bound(families_in_key_order_.begin(),
                       families_in_key_order_.end(), &f, by_head),
      &f);
  return &f;
}

CounterFamily Registry::counter_family(std::string_view name,
                                       std::uint32_t switches,
                                       const std::vector<std::string>& ports) {
  if (!enabled_) return CounterFamily{};
  return CounterFamily(family(name, false, switches, ports, 0));
}

HistogramFamily Registry::histogram_family(std::string_view name,
                                           std::uint32_t switches,
                                           std::size_t bins) {
  DDPM_CHECK(bins > 0, "a histogram needs at least one bin");
  if (!enabled_) return HistogramFamily{};
  return HistogramFamily(family(name, true, switches, {}, bins));
}

std::size_t Registry::size() const {
  std::size_t n = counters_.size() + gauges_.size() + histograms_.size();
  for (const detail::SeriesFamily& f : families_) {
    n += f.bound_rows * (f.histogram ? 1 : f.width);
  }
  return n;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::size_t family_counters = 0;
  std::size_t family_histograms = 0;
  for (const detail::SeriesFamily& f : families_) {
    if (f.histogram) {
      family_histograms += f.bound_rows;
    } else {
      family_counters += f.bound_rows * f.width;
    }
  }
  snap.counters.reserve(counters_.size() + family_counters);
  for (const auto& [key, value] : counters_) {
    snap.counters.push_back({key, value});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, slot] : gauges_) {
    snap.gauges.push_back({key, slot.value, slot.peak});
  }
  snap.histograms.reserve(histograms_.size() + family_histograms);
  for (const auto& [key, slot] : histograms_) {
    snap.histograms.push_back(
        histogram_entry(key, slot.cells.data(), slot.bins));
  }
  const auto by_key = [](const auto& a, const auto& b) { return a.key < b.key; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_key);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_key);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_key);
  // The families arrive already in key order, one name after another;
  // one linear merge places them among the named series.
  const auto named_counters = std::ptrdiff_t(snap.counters.size());
  const auto named_histograms = std::ptrdiff_t(snap.histograms.size());
  for (const detail::SeriesFamily* f : families_in_key_order_) {
    emit_family(*f, snap.counters, snap.histograms);
  }
  std::inplace_merge(snap.counters.begin(),
                     snap.counters.begin() + named_counters,
                     snap.counters.end(), by_key);
  std::inplace_merge(snap.histograms.begin(),
                     snap.histograms.begin() + named_histograms,
                     snap.histograms.end(), by_key);
  DDPM_DCHECK(strictly_sorted(snap.counters) && strictly_sorted(snap.gauges) &&
                  strictly_sorted(snap.histograms),
              "a snapshot's keys are strictly sorted");
  return snap;
}

void Registry::reset() {
  for (auto& [key, value] : counters_) value = 0;
  for (auto& [key, slot] : gauges_) slot = Gauge::Slot{};
  for (auto& [key, slot] : histograms_) {
    std::fill(slot.cells.begin(), slot.cells.end(), std::uint64_t{0});
  }
  for (detail::SeriesFamily& f : families_) {
    std::fill(f.cells.begin(), f.cells.end(), std::uint64_t{0});
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
                 a.underflow += b.underflow;
                 a.overflow += b.overflow;
                 a.total += b.total;
                 a.sum += b.sum;
                 if (a.bins.size() == b.bins.size()) {
                   for (std::size_t i = 0; i < a.bins.size(); ++i) {
                     a.bins[i] += b.bins[i];
                   }
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
