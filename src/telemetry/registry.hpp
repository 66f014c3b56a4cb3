// Metrics registry: named counters / gauges / histograms obtained once as
// fixed-cost handles.
//
// Design contract (docs/OBSERVABILITY.md):
//   * One store: every series is a `detail::Series` record in one deque,
//     found by its key head in one index. A scalar series (`counter()` /
//     `gauge()` / `histogram()`) is a record of one row whose key
//     `name{labels}` is fixed at registration. A dense family
//     (`counter_family()` / `histogram_family()`) is a record of one row
//     per switch id, counted in one flat `uint64_t` array; each switch
//     binds its row, and no key string exists for a family row until
//     `snapshot()` builds it. Registration happens during model
//     construction; one key registered again with another kind or shape
//     is a DDPM_CHECK failure.
//   * The hot path only touches handles: an increment is one null test plus
//     one add on a pre-resolved cell — no map lookups, no string work, no
//     allocation. A handle from a runtime-disabled registry carries a null
//     cell pointer, so a disabled probe costs exactly the (perfectly
//     predicted) null test. Compile-time removal is the probe layer's job
//     (telemetry/probes.hpp, DDPM_TELEMETRY_ENABLED).
//   * `snapshot()` freezes every series into a MetricsSnapshot, sorted by
//     key, with deterministic JSON / CSV renderings. It orders the records
//     by head, emits the scalar rows as one sorted run per kind and the
//     family rows, already in key order, as another, and merges the two
//     linearly, so no sort ever compares a per-switch key. Snapshots of
//     independent replications merge in replication order, which keeps
//     aggregate telemetry bit-identical for any --jobs value.
//
// Threading contract: a registry is single-threaded, like the simulator
// that feeds it — one registry per ClusterNetwork / replication, built,
// written and snapshotted inside one parallel-runner task, and merged
// after the fact through its MetricsSnapshot, never shared across
// workers. Nothing in it locks.
#pragma once

#include <bit>
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
  /// sorted position. Two histograms of one key with different bin counts
  /// are a DDPM_CHECK failure. Merging replication snapshots in
  /// replication order is deterministic by construction. DDPM_SHARD_MERGE:
  /// the sanctioned crossing for per-replication telemetry.
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
  /// A handle over one cell: a named counter's row or a family cell
  /// (`CounterFamily::bind`); null is inert.
  explicit Counter(std::uint64_t* slot) noexcept : slot_(slot) {}
  void inc(std::uint64_t n = 1) noexcept {
    if (slot_ != nullptr) *slot_ += n;
  }

 private:
  std::uint64_t* slot_ = nullptr;
};

/// Last-value-plus-peak sample (queue depth, rate estimate, ...). Its two
/// cells hold the bits of the value and of the peak.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) noexcept {
    if (cells_ == nullptr) return;
    cells_[0] = std::bit_cast<std::uint64_t>(v);
    if (v > std::bit_cast<double>(cells_[1])) {
      cells_[1] = std::bit_cast<std::uint64_t>(v);
    }
  }
  void add(double d) noexcept {
    if (cells_ != nullptr) set(std::bit_cast<double>(cells_[0]) + d);
  }

 private:
  friend class Registry;
  explicit Gauge(std::uint64_t* cells) noexcept : cells_(cells) {}
  std::uint64_t* cells_ = nullptr;
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

enum class SeriesKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// The registry's one series record: rows of cells, row-major. A row is
/// one counter (or one per port label), a gauge's value and peak, or a
/// HistogramHandle's cells. A scalar has one row, bound from the start,
/// and `head` is its whole key `name{labels}`. A family has one row per
/// switch id in [0, rows), keyed `name{switch=S}` or
/// `name{switch=S,port=L}` at snapshot; only bound rows are exported.
struct Series {
  SeriesKind kind = SeriesKind::kCounter;
  bool family = false;
  std::string head;  ///< a scalar's key; a family's `name{switch=`
  std::uint32_t rows = 1;
  std::vector<std::string> ports;  ///< counter families only
  std::size_t bins = 0;            ///< histograms
  std::size_t width = 0;           ///< cells per row
  std::vector<std::uint64_t> cells;
  std::vector<bool> bound;  ///< per row
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
  explicit CounterFamily(detail::Series* family) noexcept : family_(family) {}
  detail::Series* family_ = nullptr;
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
  explicit HistogramFamily(detail::Series* family) noexcept
      : family_(family) {}
  detail::Series* family_ = nullptr;
};

/// Owns every series. Keys are `name` or `name{labels}` — e.g.
/// `mark.applied{scheme=ddpm}` or, for a family row,
/// `link.tx_packets{switch=3,port=+x}`. Registering the same key (or
/// family name) again with the same kind and shape returns a handle to the
/// same cells; another kind or shape is a DDPM_CHECK failure. A scalar and
/// a family of one name are two records.
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

  /// Number of registered series (a family counts its bound rows' series).
  std::size_t size() const;

  /// Freezes current values, sorted by key. DDPM_DET_SINK: snapshots feed
  /// the deterministic JSON/CSV artifacts, so the freeze path must walk
  /// the record deque and order it by head, never the unordered lookup
  /// index.
  DDPM_DET_SINK MetricsSnapshot snapshot() const;

  /// Zeroes every cell; registrations (and outstanding handles) survive.
  void reset();

  static std::string make_key(std::string_view name, std::string_view labels);

 private:
  /// The record whose head is `head`, created with this kind and shape
  /// if there is none; DDPM_CHECK-fails if it has another.
  detail::Series* series(std::string_view head, detail::SeriesKind kind,
                         bool family, std::uint32_t rows,
                         const std::vector<std::string>& ports,
                         std::size_t bins);
  /// The cells of the scalar `name{labels}`.
  std::uint64_t* scalar(std::string_view name, std::string_view labels,
                        detail::SeriesKind kind, std::size_t bins);

  bool enabled_;
  // A deque: record addresses must stay stable as registration continues.
  std::deque<detail::Series> series_;
  /// Each record by its head; the views point into the records.
  std::unordered_map<std::string_view, detail::Series*> by_head_;
  std::string head_;  ///< a family head being looked up, reused per bind
};

}  // namespace ddpm::telemetry
