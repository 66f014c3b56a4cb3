#include "telemetry/registry.hpp"

#include <algorithm>
#include <sstream>

namespace ddpm::telemetry {

void HistogramHandle::add_bound(double x) noexcept {
  ++slot_->total;
  slot_->sum += x;
  if (x < slot_->lo) {
    ++slot_->underflow;
  } else if (x >= slot_->hi) {
    ++slot_->overflow;
  } else {
    // Floating-point bin scaling; a reciprocal multiply would move bin
    // boundaries by an ulp and silently reshuffle edge samples.
    ++slot_->bins[static_cast<std::size_t>(
        (x - slot_->lo) / slot_->width)];  // ddpm-analyze: allow(hot-no-div)
  }
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
                                    std::string_view labels, double lo,
                                    double hi, std::size_t bins) {
  if (!enabled_) return HistogramHandle{};
  auto* slot = find_or_create(histograms_, histogram_index_,
                              make_key(name, labels));
  if (slot->bins.empty()) {
    slot->lo = lo;
    slot->hi = hi;
    slot->width = (hi - lo) / double(bins ? bins : 1);
    slot->bins.assign(bins ? bins : 1, 0);
  }
  return HistogramHandle(slot);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [key, value] : counters_) {
    snap.counters.push_back({key, value});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, slot] : gauges_) {
    snap.gauges.push_back({key, slot.value, slot.peak});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, slot] : histograms_) {
    snap.histograms.push_back({key, slot.lo, slot.hi, slot.underflow,
                               slot.overflow, slot.total, slot.sum,
                               slot.bins});
  }
  const auto by_key = [](const auto& a, const auto& b) { return a.key < b.key; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_key);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_key);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_key);
  return snap;
}

void Registry::reset() {
  for (auto& [key, value] : counters_) value = 0;
  for (auto& [key, slot] : gauges_) slot = Gauge::Slot{};
  for (auto& [key, slot] : histograms_) {
    slot.underflow = slot.overflow = slot.total = 0;
    slot.sum = 0.0;
    std::fill(slot.bins.begin(), slot.bins.end(), std::uint64_t{0});
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
