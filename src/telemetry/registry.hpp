// Metrics registry: named counters / gauges / histograms obtained once as
// fixed-cost handles.
//
// Design contract (docs/OBSERVABILITY.md):
//   * Registration (`counter()` / `gauge()` / `histogram()`) happens during
//     model construction. It formats a key, deduplicates it, and hands back
//     a handle holding a raw slot pointer.
//   * The hot path only touches handles: an increment is one null test plus
//     one add on a pre-resolved slot — no map lookups, no string work, no
//     allocation. A handle from a runtime-disabled registry carries a null
//     slot, so a disabled probe costs exactly the (perfectly predicted)
//     null test. Compile-time removal is the probe layer's job
//     (telemetry/probes.hpp, DDPM_TELEMETRY_ENABLED).
//   * `snapshot()` freezes every series into a MetricsSnapshot, sorted by
//     key, with deterministic JSON / CSV renderings. Snapshots of
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
  void inc(std::uint64_t n = 1) noexcept {
    if (slot_ != nullptr) *slot_ += n;
  }

 private:
  friend class Registry;
  explicit Counter(std::uint64_t* slot) noexcept : slot_(slot) {}
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

/// Fixed-width-bin histogram over [lo, hi) with saturating under/overflow
/// bins. Self-contained (telemetry sits below netsim in the link graph).
class HistogramHandle {
 public:
  HistogramHandle() = default;
  /// The unbound check is inline so a disabled handle costs one predictable
  /// branch at the call site — the wormhole loop samples buffer depth on
  /// every forwarded flit, and an out-of-line call for a no-op was
  /// measurable there. The bound path stays out of line (bin math is cold
  /// relative to the null check).
  void add(double x) noexcept {
    if (slot_ != nullptr) add_bound(x);
  }

 private:
  void add_bound(double x) noexcept;
  friend class Registry;
  struct Slot {
    double lo = 0.0;
    double hi = 0.0;
    double width = 1.0;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::uint64_t total = 0;
    double sum = 0.0;
    std::vector<std::uint64_t> bins;
  };
  explicit HistogramHandle(Slot* slot) noexcept : slot_(slot) {}
  Slot* slot_ = nullptr;
};

/// Owns every series. Keys are `name` or `name{labels}` — e.g.
/// `switch.delivered_local{switch=3}` or `link.tx_packets{switch=3,port=+x}`.
/// Registering the same key twice returns a handle to the same slot.
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
  HistogramHandle histogram(std::string_view name, std::string_view labels,
                            double lo, double hi, std::size_t bins);

  /// Number of registered series.
  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Freezes current values, sorted by key. DDPM_DET_SINK: snapshots feed
  /// the deterministic JSON/CSV artifacts, so the freeze path must walk
  /// the key-sorted series lists, never the unordered lookup indexes.
  DDPM_DET_SINK MetricsSnapshot snapshot() const;

  /// Zeroes every slot; registrations (and outstanding handles) survive.
  void reset();

  static std::string make_key(std::string_view name, std::string_view labels);

 private:
  template <typename SlotT>
  SlotT* find_or_create(std::deque<std::pair<std::string, SlotT>>& slots,
                        std::unordered_map<std::string, SlotT*>& index,
                        std::string key);

  bool enabled_;
  // Deques: slot addresses must stay stable as registration continues.
  std::deque<std::pair<std::string, std::uint64_t>> counters_;
  std::deque<std::pair<std::string, Gauge::Slot>> gauges_;
  std::deque<std::pair<std::string, HistogramHandle::Slot>> histograms_;
  std::unordered_map<std::string, std::uint64_t*> counter_index_;
  std::unordered_map<std::string, Gauge::Slot*> gauge_index_;
  std::unordered_map<std::string, HistogramHandle::Slot*> histogram_index_;
};

}  // namespace ddpm::telemetry
