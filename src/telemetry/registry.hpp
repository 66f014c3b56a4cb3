// Metrics registry: named counters / gauges / histograms obtained once as
// fixed-cost handles.
//
// Design contract (docs/OBSERVABILITY.md):
//   * Registration (`counter()` / `gauge()` / `histogram()`) happens during
//     model construction. It formats a key, deduplicates it, and hands back
//     a handle holding a raw slot pointer.
//   * Per-switch and per-port series are dense families
//     (`counter_family()` / `histogram_family()`): registered once by name
//     with their label values, they count into one flat `uint64_t` array,
//     and each switch binds its row. No key string exists for a family
//     cell until `snapshot()` builds it.
//   * The hot path only touches handles: an increment is one null test plus
//     one add on a pre-resolved slot — no map lookups, no string work, no
//     allocation. A handle from a runtime-disabled registry carries a null
//     slot, so a disabled probe costs exactly the (perfectly predicted)
//     null test. Compile-time removal is the probe layer's job
//     (telemetry/probes.hpp, DDPM_TELEMETRY_ENABLED).
//   * `snapshot()` freezes every series into a MetricsSnapshot, sorted by
//     key, with deterministic JSON / CSV renderings. Family keys are
//     emitted already in key order and merged with the sorted named
//     series, so no sort ever compares a per-switch key. Snapshots of
//     independent replications merge in replication order, which keeps
//     aggregate telemetry bit-identical for any --jobs value.
//
// Threading contract: a registry is single-threaded, like the simulator
// that feeds it — one registry per ClusterNetwork / replication, built,
// written and snapshotted inside one parallel-runner task, and merged
// after the fact through its MetricsSnapshot, never shared across
// workers. Nothing in it locks.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/shard_annotations.hpp"

namespace ddpm::telemetry {

/// Frozen, order-stable view of a registry (or a merge of several). All
/// three series lists are sorted by key.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string key;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string key;
    double value = 0.0;  ///< last written value (sums across merges)
    double peak = 0.0;   ///< maximum ever written (max across merges)
  };
  struct HistogramEntry {
    std::string key;
    double lo = 0.0;
    double hi = 0.0;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::uint64_t total = 0;
    double sum = 0.0;
    std::vector<std::uint64_t> bins;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  std::size_t series() const noexcept {
    return counters.size() + gauges.size() + histograms.size();
  }

  /// Finds a counter by exact key; 0 if absent.
  std::uint64_t counter_value(std::string_view key) const noexcept;
  /// Sums every counter whose key starts with `prefix`.
  std::uint64_t counter_sum_prefix(std::string_view prefix) const noexcept;

  /// Folds `other` into this snapshot: counters and histogram bins add,
  /// gauge values add and peaks take the max, unknown keys are inserted in
  /// sorted position. Merging replication snapshots in replication order is
  /// deterministic by construction. DDPM_SHARD_MERGE: the sanctioned
  /// crossing for per-replication telemetry.
  DDPM_SHARD_MERGE void merge(const MetricsSnapshot& other);

  /// Stable pretty-printed JSON: {"counters": {...}, "gauges": ...}.
  std::string to_json() const;
  /// One `kind,key,value,...` row per series (counters/gauges only carry a
  /// value column; histograms add lo/hi/underflow/overflow and the bins as
  /// a `|`-joined list).
  std::string to_csv() const;
};

class Registry;

/// Monotonic event count. Default-constructed (or runtime-disabled) handles
/// are inert.
class Counter {
 public:
  Counter() = default;
  /// A handle over one cell: a named counter's slot or a family cell
  /// (`CounterFamily::bind`); null is inert.
  explicit Counter(std::uint64_t* slot) noexcept : slot_(slot) {}
  void inc(std::uint64_t n = 1) noexcept {
    if (slot_ != nullptr) *slot_ += n;
  }

 private:
  std::uint64_t* slot_ = nullptr;
};

/// Last-value-plus-peak sample (queue depth, rate estimate, ...).
class Gauge {
 public:
  Gauge() = default;
  void set(double v) noexcept {
    if (slot_ == nullptr) return;
    slot_->value = v;
    if (v > slot_->peak) slot_->peak = v;
  }
  void add(double d) noexcept {
    if (slot_ != nullptr) set(slot_->value + d);
  }

 private:
  friend class Registry;
  struct Slot {
    double value = 0.0;
    double peak = 0.0;
  };
  explicit Gauge(Slot* slot) noexcept : slot_(slot) {}
  Slot* slot_ = nullptr;
};

/// Integer histogram in unit bins from 0: bin i counts the samples equal
/// to i, and a sample at or past the bin count lands in overflow. Its
/// cells are the bins, then the overflow, then the integer sum of the
/// samples; the total is summed from them at snapshot. Exported over
/// [0, bins) with an always-empty underflow.
class HistogramHandle {
 public:
  HistogramHandle() = default;
  /// Inline, with no division: the switch samples queue depth on every
  /// forward and the wormhole buffer depth on every flit forward.
  void add(std::uint64_t x) noexcept {
    if (cells_ == nullptr) return;
    ++cells_[x < bins_ ? x : bins_];
    cells_[bins_ + 1] += x;
  }

 private:
  friend class Registry;
  friend class HistogramFamily;
  HistogramHandle(std::uint64_t* cells, std::size_t bins) noexcept
      : cells_(cells), bins_(bins) {}
  std::uint64_t* cells_ = nullptr;
  std::size_t bins_ = 0;
};

namespace detail {

/// A dense series family: one row of cells per switch id in
/// [0, switches), switch-major. A counter family's row holds one counter
/// (`name{switch=S}`) or one per port label (`name{switch=S,port=L}`); a
/// histogram family's row is one HistogramHandle's cells (`name{switch=S}`).
/// Only bound rows are exported.
struct SeriesFamily {
  std::string name;
  std::string head;  ///< every key's start: `name{switch=`
  bool histogram = false;
  std::uint32_t switches = 0;
  std::vector<std::string> ports;  ///< empty: labelled by switch alone
  std::size_t bins = 0;            ///< histogram families
  std::size_t width = 0;           ///< cells per row
  std::vector<std::uint64_t> cells;
  std::vector<bool> bound;
  std::size_t bound_rows = 0;
  /// Port indices in the order of their keys' tails (`label}`).
  std::vector<std::size_t> port_order;

  /// Marks row `sw` exported; returns its first cell.
  std::uint64_t* bind(std::uint32_t sw);
};

}  // namespace detail

/// Handle to a dense counter family (Registry::counter_family). Inert when
/// default-constructed or handed out by a disabled registry.
class CounterFamily {
 public:
  CounterFamily() = default;
  /// Binds switch `sw`'s row, which puts its series in the snapshot, and
  /// returns its cells: one per port label, or one for a family labelled
  /// by switch alone. Null when inert.
  std::uint64_t* bind(std::uint32_t sw) const {
    return family_ == nullptr ? nullptr : family_->bind(sw);
  }

 private:
  friend class Registry;
  explicit CounterFamily(detail::SeriesFamily* family) noexcept
      : family_(family) {}
  detail::SeriesFamily* family_ = nullptr;
};

/// Handle to a dense histogram family (Registry::histogram_family).
class HistogramFamily {
 public:
  HistogramFamily() = default;
  /// Binds switch `sw`'s histogram; inert when the family is.
  HistogramHandle bind(std::uint32_t sw) const {
    if (family_ == nullptr) return HistogramHandle{};
    return HistogramHandle(family_->bind(sw), family_->bins);
  }

 private:
  friend class Registry;
  explicit HistogramFamily(detail::SeriesFamily* family) noexcept
      : family_(family) {}
  detail::SeriesFamily* family_ = nullptr;
};

/// Owns every series. Keys are `name` or `name{labels}` — e.g.
/// `switch.delivered_local{switch=3}` or `link.tx_packets{switch=3,port=+x}`.
/// Registering the same key twice returns a handle to the same slot; a
/// histogram registered again with another bin count is a DDPM_CHECK
/// failure.
class Registry {
 public:
  /// A disabled registry hands out inert handles and produces empty
  /// snapshots — the runtime half of the gating story.
  explicit Registry(bool enabled = true) noexcept : enabled_(enabled) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  bool enabled() const noexcept { return enabled_; }

  Counter counter(std::string_view name, std::string_view labels = {});
  Gauge gauge(std::string_view name, std::string_view labels = {});
  /// A unit-bin integer histogram over [0, bins).
  HistogramHandle histogram(std::string_view name, std::string_view labels,
                            std::size_t bins);

  /// The counter family `name` over switch ids [0, switches), crossed
  /// with `ports` when it is not empty: created on first use, found by
  /// name after. Registering it again with another switch count or label
  /// set is a DDPM_CHECK failure.
  CounterFamily counter_family(std::string_view name, std::uint32_t switches,
                               const std::vector<std::string>& ports = {});
  /// The histogram family `name`: one unit-bin histogram over [0, bins)
  /// per switch id in [0, switches). Same find-or-create rule.
  HistogramFamily histogram_family(std::string_view name,
                                   std::uint32_t switches, std::size_t bins);

  /// Number of registered series (a family counts its bound rows' cells).
  std::size_t size() const;

  /// Freezes current values, sorted by key. DDPM_DET_SINK: snapshots feed
  /// the deterministic JSON/CSV artifacts, so the freeze path must walk
  /// the series lists and the name-sorted families, never the unordered
  /// lookup indexes.
  DDPM_DET_SINK MetricsSnapshot snapshot() const;

  /// Zeroes every slot and family cell; registrations (and outstanding
  /// handles) survive.
  void reset();

  static std::string make_key(std::string_view name, std::string_view labels);

 private:
  struct HistogramSlot {
    std::size_t bins = 0;
    std::vector<std::uint64_t> cells;  ///< HistogramHandle's layout
  };

  template <typename SlotT>
  SlotT* find_or_create(std::deque<std::pair<std::string, SlotT>>& slots,
                        std::unordered_map<std::string, SlotT*>& index,
                        std::string key);
  detail::SeriesFamily* family(std::string_view name, bool histogram,
                               std::uint32_t switches,
                               const std::vector<std::string>& ports,
                               std::size_t bins);

  bool enabled_;
  // Deques: slot addresses must stay stable as registration continues.
  std::deque<std::pair<std::string, std::uint64_t>> counters_;
  std::deque<std::pair<std::string, Gauge::Slot>> gauges_;
  std::deque<std::pair<std::string, HistogramSlot>> histograms_;
  std::unordered_map<std::string, std::uint64_t*> counter_index_;
  std::unordered_map<std::string, Gauge::Slot*> gauge_index_;
  std::unordered_map<std::string, HistogramSlot*> histogram_index_;
  std::deque<detail::SeriesFamily> families_;
  /// families_ in the order of their keys' heads.
  std::vector<detail::SeriesFamily*> families_in_key_order_;
};

}  // namespace ddpm::telemetry
